import inspect
import json
import os
import subprocess
import sys

import dodeca
from dodeca import checks, cli
from dodeca.checks import CHECK_NAMES
from dodeca.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main
from dodeca.errors import InconclusiveError
from dodeca.geom import Point, Region, overlap_status, region_to_json


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


def test_orbit_backward(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "orbit",
        "--point",
        "0,3",
        "--steps",
        "6",
        "--backward",
        "4",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["itinerary"] == "4343.434343"
    assert obj["final"] == ["-7+4*s3", "-4+4*s3"]


def test_orbit_backward_stops_on_a_piece_image_boundary(capsys):
    # the preimage of this point lies on the common edge of T'(alpha_4) and
    # T'(alpha_5): one backward step succeeds, the second stops there
    argv = ["--format", "json", "orbit", "--point=-1+1/2*s3,5/2+2*s3", "--steps", "2"]
    code, out, _ = run(capsys, *argv, "--backward", "1")
    assert code == EXIT_OK
    assert json.loads(out)["itinerary"] == "5.45"
    code, out, _ = run(capsys, *argv, "--backward", "3")
    assert code == EXIT_INCONCLUSIVE
    obj = json.loads(out)
    assert obj["error"] == "boundary" and obj["steps_done"] == 1


def test_orbit_final_matches_a_replay_of_the_symbols(capsys, ctx):
    # the final point comes from the walk that read the symbols; replaying
    # them with the piece maps on QS3 points must land on the same point
    w = ctx.wedge
    y = ctx.witness().y
    point = f"--point={y.x.literal()},{y.y.literal()}"
    code, out, _ = run(capsys, "--format", "json", "orbit", point, "--steps", "20000")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["symbols_forward"]) == 20000
    q = y
    for i in obj["symbols_forward"]:
        q = w.maps[i].apply(q)
    assert obj["final"] == [q.x.literal(), q.y.literal()]


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


def test_format_json_prints_one_object(capsys, tmp_path):
    cases = [
        ["verify", "--only", "construction-identities"],
        ["render", "--what", "table", "--out", str(tmp_path / "t.svg")],
        ["build"],
        ["periods", "--bound", "60", "--json", str(tmp_path / "p.json")],
    ]
    objs = []
    for argv in cases:
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == EXIT_OK
        objs.append(json.loads(out))
        assert objs[-1]["seed"] == 0, argv
    verify = objs[0]
    assert verify["passed"] == 1 and verify["results"][0]["name"] == "construction-identities"


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
    assert [c.max_iter for c in seen] == [10**6, 123, 456]


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
    # also for a subcommand that iterates nothing
    code, _, err = run(capsys, "periods", "--bound", "10")
    assert code == EXIT_USAGE and "DODECA_MAX_ITER" in err


def test_nonpositive_counts_are_usage_errors(capsys, monkeypatch):
    # a cap below 1, from the flag or the variable, and a --bound below 1
    # are usage errors, not an inconclusive search or a traceback
    monkeypatch.delenv("DODECA_MAX_ITER", raising=False)
    for argv in (
        ["periods", "--bound", "0"],
        ["periods", "--bound", "-3"],
        ["--max-iter", "0", "first-return", "--region", "z4"],
        ["--max-iter", "-1", "periods", "--bound", "10"],
        ["--format", "json", "--max-iter", "0", "component", "--point", "1,2"],
        # no aperiodic check of fewer than 1 step, or of a negative depth or
        # spiral count, and no orbit of a negative length
        ["aperiodic", "--steps", "10", "--depth", "-1", "--verify-spiral", "-2"],
        ["aperiodic", "--steps", "0"],
        ["aperiodic", "--steps", "10", "--verify-spiral", "-1"],
        ["orbit", "--point", "1,2", "--steps", "-3", "--backward", "-2"],
        ["--format", "json", "orbit", "--point", "1,2", "--backward", "-1"],
        ["orbit", "--point", "1,2", "--map", "T", "--steps", "-1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")
    for env in ("0", "-1"):
        monkeypatch.setenv("DODECA_MAX_ITER", env)
        code, out, err = run(capsys, "first-return", "--region", "z4")
        assert code == EXIT_USAGE and out == "" and "DODECA_MAX_ITER" in err
    # the flag overrides the variable, and 1 is a valid cap and bound
    code, _, _ = run(capsys, "--max-iter", "1", "periods", "--bound", "1")
    assert code == EXIT_OK
    # the least valid counts
    monkeypatch.delenv("DODECA_MAX_ITER")
    code, out, _ = run(
        capsys, "aperiodic", "--steps", "1", "--depth", "0", "--verify-spiral", "0"
    )
    assert code == EXIT_OK and "period lower bound 1" in out
    code, out, _ = run(capsys, "orbit", "--point", "1,2", "--steps", "0")
    assert code == EXIT_OK and "itinerary ." in out


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


def test_unwritable_output_is_a_usage_error(capsys, tmp_path, monkeypatch):
    # an output path that cannot be written (a missing directory, or a
    # directory itself) is a usage error, not a traceback with the exit code
    # of a failed check; verify opens its file before any check runs
    ran = []
    monkeypatch.setattr(cli, "run_checks", lambda *a, **kw: ran.append(a))
    missing = str(tmp_path / "no" / "dir" / "out")
    for argv in (
        ["periods", "--bound", "3", "--json", missing],
        ["periods", "--bound", "3", "--json", str(tmp_path)],
        ["render", "--what", "table", "--out", missing],
        ["aperiodic", "--steps", "10", "--depth", "1", "--emit-spiral", missing],
        ["verify", "--only", "construction-identities", "--json", missing],
        ["--format", "json", "verify", "--json", str(tmp_path)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == "", argv
        assert err.startswith("error: cannot write "), argv
    assert ran == [] and not (tmp_path / "no").exists()


def _region_file(tmp_path, name, vertices):
    target = tmp_path / f"{name}.json"
    target.write_text(region_to_json(Region.bounded([Point.parse(v) for v in vertices])))
    return str(target)


def test_region_outside_wedge_is_usage_error(capsys, tmp_path):
    region = _region_file(tmp_path, "outside", ["10,0", "11,0", "10,1"])
    for command in ("first-return", "verify-partition"):
        code, out, err = run(capsys, command, "--region", region)
        assert code == EXIT_USAGE
        assert out == "" and err == "error: return domain must lie in the wedge\n"
    # a malformed region file is a usage error too, not a disproof
    malformed = ["not json", '{"kind": "bounded"}', '{"vertices": [["x", "1"]]}']
    for i, text in enumerate(malformed):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        code, out, err = run(capsys, "first-return", "--region", str(bad))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot read region file")


def test_failed_check_is_an_error_object(capsys, tmp_path, ctx):
    # the triangle with legs 1/3 at O_3 lies inside W_3, whose tube enters
    # it: the carve finds W_3 over the triangle's return towers
    vertices = ["-1+1*s3,1+1*s3", "-2/3+1*s3,1+1*s3", "-1+1*s3,4/3+1*s3"]
    assert ctx.wedge.O[3] == Point.parse(vertices[0])
    region = _region_file(tmp_path, "o3", vertices)
    triangle = Region.bounded([Point.parse(v) for v in vertices])
    assert overlap_status(triangle, ctx.sim.w3.region.convex_parts()) == "inside"
    code, out, err = run(capsys, "--format", "json", "verify-partition", "--region", region)
    assert code == EXIT_FAIL and err == ""
    assert json.loads(out) == {
        "error": "check failed",
        "detail": "periodic tube polygons must not overlap",
        "seed": 0,
    }


def test_aperiodic_obeys_the_cap(capsys):
    argv = ["aperiodic", "--steps", "10", "--depth", "2", "--verify-spiral", "3"]
    assert run(capsys, *argv)[0] == EXIT_OK
    code, out, _ = run(capsys, "--max-iter", "5", *argv)
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("inconclusive: ")


def test_one_context_per_run(capsys, monkeypatch, sim):
    # main builds one Context per run, and its cap reaches every engine call
    made = []

    class Spy(checks.Context):
        def __init__(self, **kw):
            super().__init__(**kw)
            made.append(self)

    caps = []

    def record(module, name, result=None):
        real = getattr(module, name)

        def call(*a, **kw):
            bound = inspect.signature(real).bind(*a, **kw)
            bound.apply_defaults()
            args = bound.arguments
            caps.append({k: args[k] for k in ("max_iter", "max_events") if k in args})
            if result is None:
                raise InconclusiveError(f"{name} stubbed")
            return result

        monkeypatch.setattr(module, name, call)

    monkeypatch.setattr(cli, "Context", Spy)
    for name in (
        "find_periodic_component",
        "first_return_map",
        "verify_partition",
        "aperiodic_witness",
    ):
        record(cli, name)
    for name in ("find_periodic_component", "first_return_map"):
        record(checks, name)
    record(checks, "build_similarity", result=sim)
    commands = [
        ["component", "--point", "1,2"],
        ["first-return", "--region", "z4"],
        ["verify-partition", "--region", "z4"],
        ["aperiodic"],
        ["render", "--what", "components", "--out", "unused.svg"],
        ["render", "--what", "spiral", "--out", "unused.svg"],
        ["render", "--what", "partition-z4", "--out", "unused.svg"],
    ]
    for argv in commands:
        before = len(caps)
        code, out, _ = run(capsys, "--max-iter", "123", *argv)
        assert code == EXIT_INCONCLUSIVE, argv
        assert out.startswith("inconclusive: ") and "stubbed" in out
        assert len(caps) > before and all(set(c.values()) == {123} for c in caps[before:])
    assert [c.max_iter for c in made] == [123] * len(commands)
