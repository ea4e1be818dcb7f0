import json
import os
import subprocess
import sys

import dodeca
from dodeca import cli
from dodeca.checks import CHECK_NAMES
from dodeca.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_dump_json(capsys):
    code, out, _ = run(capsys, "build", "--dump-json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["vertices"]) == 12
    assert obj["Zp"]["kind"] == "bounded"
    assert obj["alpha"]["6"]["kind"] == "unbounded"


def test_periods_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "periods", "--bound", "100")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["periods"] == sorted(obj["periods"])
    assert obj["periods"][0] == 3
    assert 2 not in obj["periods"] and 5 not in obj["periods"]


def test_periods_with_witnesses(capsys, tmp_path):
    target = tmp_path / "periods.json"
    code, out, _ = run(
        capsys, "periods", "--bound", "60", "--json", str(target), "--witnesses"
    )
    assert code == EXIT_OK
    obj = json.loads(target.read_text())
    assert "witnesses" in obj and obj["witnesses"]["12"]["family"] in ("F", "G")


def test_orbit_fixed_point(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "orbit",
        "--point",
        "0+2/3*s3,2",
        "--steps",
        "5",
        "--map",
        "Tprime",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["itinerary"] == ".22222"
    assert obj["final"] == ["0+2/3*s3", "2+0*s3"]


def test_orbit_billiard_map(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "orbit",
        "--point",
        "0+2*s3,0",
        "--steps",
        "3",
        "--map",
        "T",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["symbols_forward"]) == 3
    assert all(0 <= s < 12 for s in obj["symbols_forward"])


def test_orbit_malformed_point(capsys):
    code, _, err = run(capsys, "orbit", "--point", "abc", "--steps", "1")
    assert code == EXIT_USAGE
    assert "literal" in err


def test_orbit_boundary_is_inconclusive(capsys):
    # the wedge apex lies on every piece boundary
    code, out, _ = run(capsys, "orbit", "--point", "0+1*s3,1", "--steps", "1")
    assert code == EXIT_INCONCLUSIVE


def test_component_command(capsys):
    # literals starting with "-" need the --opt=value spelling
    code, out, _ = run(
        capsys, "--format", "json", "component", "--point=-2+2*s3,-2+2*s3"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["period_tprime"] == 1
    assert obj["rotation_l"] == 5
    assert obj["point_periods"]["center_per_t"] == 12


def test_first_return_region_file(capsys, tmp_path):
    from dodeca.geom import region_to_json
    from dodeca.selfsim import build_similarity
    from dodeca.table import build_table

    _, w = build_table()
    s = build_similarity(w)
    target = tmp_path / "z4.json"
    target.write_text(region_to_json(s.Z4))
    code, out, _ = run(capsys, "--format", "json", "first-return", "--region", str(target))
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["pieces"]) == 8
    assert obj["census"]["nonconvex"] == 1


def test_verify_partition_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify-partition", "--region", "z4")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["n_components"] == 7
    assert obj["exact_area_identity"] is True


def test_render_deterministic(capsys, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert run(capsys, "render", "--what", "table", "--out", str(a))[0] == EXIT_OK
    assert run(capsys, "render", "--what", "table", "--out", str(b))[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<?xml")


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only", "construction-identities")
    assert code == EXIT_OK
    assert "construction-identities" in out and "PASS" in out


def test_optimized_interpreter_refused():
    # python -O strips the assert statements that carry every check
    src = os.path.dirname(os.path.dirname(os.path.abspath(dodeca.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (
        ["-c", "import dodeca"],
        ["-m", "dodeca.cli", "verify", "--only", "construction-identities"],
    ):
        proc = subprocess.run(
            [sys.executable, "-O", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert "python -O" in proc.stderr


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--only", "nope")
    assert code == EXIT_USAGE
    # a typo in --skip must not run the check it meant to skip
    code, _, err = run(capsys, "verify", "--skip", "full-measur")
    assert code == EXIT_USAGE and "full-measur" in err
    # an empty selection is a usage error, not a crash
    for argv in (["--only", ","], ["--only", ""], ["--skip", ",".join(CHECK_NAMES)]):
        code, _, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE and "no checks selected" in err


def test_verify_cap_override(capsys, monkeypatch):
    # --max-iter and DODECA_MAX_ITER also cap the first-return event budget
    seen = []

    def run_checks(names, ctx, progress):
        seen.append(ctx)
        return []

    monkeypatch.setattr(cli, "run_checks", run_checks)
    monkeypatch.delenv("DODECA_MAX_ITER", raising=False)
    run(capsys, "verify")
    run(capsys, "--max-iter", "123", "verify")
    monkeypatch.setenv("DODECA_MAX_ITER", "456")
    run(capsys, "verify")
    assert [(c.max_iter, c.max_events) for c in seen] == [
        (10**6, 10**6),
        (123, 123),
        (456, 456),
    ]


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_env_cap_override(capsys, monkeypatch):
    # a tiny global cap makes the component search inconclusive
    monkeypatch.setenv("DODECA_MAX_ITER", "2")
    code, _, _ = run(capsys, "component", "--point", "1,2")
    assert code == EXIT_INCONCLUSIVE
    monkeypatch.setenv("DODECA_MAX_ITER", "500")
    code, _, _ = run(capsys, "component", "--point", "1,2")
    assert code == EXIT_OK
    monkeypatch.setenv("DODECA_MAX_ITER", "nonsense")
    code, _, err = run(capsys, "component", "--point", "1,2")
    assert code == EXIT_USAGE


def test_aperiodic_command(capsys, tmp_path):
    spiral = tmp_path / "spiral.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "aperiodic",
        "--steps",
        "200",
        "--depth",
        "3",
        "--verify-spiral",
        "4",
        "--emit-spiral",
        str(spiral),
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["y"] == ["-4/7+6/7*s3", "12/7+2/7*s3"]
    assert obj["steps_checked"] == 200
    data = json.loads(spiral.read_text())
    assert len(data["regions"]) >= 4
