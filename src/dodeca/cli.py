"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed (disproof), 2 an
iteration cap was exhausted or a boundary was hit (inconclusive), 3 usage
or parse error.  With ``--format json`` every subcommand prints one JSON
object on stdout.  Every error object and every JSON result except ``build
--dump-json`` records the seed that produced it; the caps are not recorded.
``--max-iter``, else the environment variable DODECA_MAX_ITER, sets one cap
for every iteration and event budget of every subcommand.

``main`` builds one lazy ``Context`` per run and passes it to the
subcommand, and it alone turns engine errors into exit codes and error
objects.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .checks import CHECK_NAMES, DOMAINS, Context, run_checks
from .errors import DomainError, GraneError, InconclusiveError, SelfReturnError
from .geom import Point, region_from_json, region_to_obj
from .periods import full_period_set
from .render import (
    render_svg,
    scene_components,
    scene_partition,
    scene_spiral,
    scene_table,
)
from .search import (
    component_periods,
    find_periodic_component,
    first_return_map,
    verify_partition,
)
from .selfsim import aperiodic_witness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

# Engine errors that are verdicts: (type, exit code, "error" field).
VERDICTS = (
    (GraneError, EXIT_INCONCLUSIVE, "boundary"),
    (InconclusiveError, EXIT_INCONCLUSIVE, "inconclusive"),
    (SelfReturnError, EXIT_FAIL, "self-return violated"),
    (AssertionError, EXIT_FAIL, "check failed"),
)


def _max_iter(args) -> int:
    cap, source = args.max_iter, "--max-iter"
    if cap is None:
        env = os.environ.get("DODECA_MAX_ITER")
        if not env:
            return 10**6
        try:
            cap, source = int(env), "DODECA_MAX_ITER"
        except ValueError:
            raise DomainError(f"bad DODECA_MAX_ITER value: {env!r}")
    if cap < 1:
        raise DomainError(f"{source} must be at least 1, got {cap}")
    return cap


def _emit(obj, args, text_lines):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_point(text: str) -> Point:
    try:
        return Point.parse(text)
    except ValueError as exc:
        raise _Usage(str(exc))


class _Usage(Exception):
    pass


def _domain(ctx, name):
    """A named domain of the context, else the region in a JSON file."""
    if name in DOMAINS:
        return ctx.domain(name)
    try:
        with open(name, "r", encoding="utf-8") as fh:
            return region_from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        raise _Usage(f"cannot read region file {name!r}: {exc!r}")


def _open_out(name, mode="w"):
    """An output file opened for writing, else a usage error."""
    try:
        return open(name, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise _Usage(f"cannot write {name!r}: {exc!r}")


def cmd_build(args, ctx) -> int:
    table, w = ctx.system
    if not args.dump_json:
        _emit(
            {"construction": "ok", "seed": args.seed},
            args,
            ["construction OK: 12-gon table, wedge system, rocket and necklace built"],
        )
        return EXIT_OK
    obj = {
        "vertices": [[p.x.literal(), p.y.literal()] for p in table.vertices],
        "crossings": [[p.x.literal(), p.y.literal()] for p in table.crossings],
        "mirrored": [region_to_obj(r) for r in table.mirrored],
        "P": {i: [p.x.literal(), p.y.literal()] for i, p in w.P.items()},
        "Q": {i: [p.x.literal(), p.y.literal()] for i, p in w.Q.items()},
        "O": {i: [p.x.literal(), p.y.literal()] for i, p in w.O.items()},
        "alpha": {i: region_to_obj(w.alpha[i]) for i in range(1, 7)},
        "Zp": region_to_obj(w.Zp),
        "Z": region_to_obj(w.Z),
        "translation": [w.translation_vec.x.literal(), w.translation_vec.y.literal()],
    }
    print(json.dumps(obj, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_orbit(args, ctx) -> int:
    if args.steps < 0 or args.backward < 0:
        raise _Usage(
            f"--steps and --backward must be at least 0, got {args.steps}, {args.backward}"
        )
    p = _parse_point(args.point)
    q = p
    if args.map == "T":
        # T^-1 = sigma T sigma (``Table.step``)
        sigma = ctx.table.sigma
        back_symbols = []
        for _ in range(args.backward):
            q, j = ctx.table.step(sigma.apply(q))
            q = sigma.apply(q)
            back_symbols.append(-j % 12)
        back_symbols.reverse()
        q = p
        symbols = []
        for _ in range(args.steps):
            q, i = ctx.table.step(q)
            symbols.append(i)
    else:
        w = ctx.wedge
        it = w.itinerary(p, args.steps, args.backward)
        if not it.complete:
            raise GraneError(
                "orbit hit a boundary",
                steps_done=(it.fwd_fail if it.fwd_fail is not None else it.bwd_fail),
            )
        symbols = list(it.symbols[it.start_offset :])
        back_symbols = list(it.symbols[: it.start_offset])
        q = it.end
    sep = "," if args.map == "T" else ""
    obj = {
        "map": args.map,
        "point": args.point,
        "symbols_backward": back_symbols,
        "symbols_forward": symbols,
        "itinerary": sep.join(str(s) for s in back_symbols)
        + "."
        + sep.join(str(s) for s in symbols),
        "final": [q.x.literal(), q.y.literal()],
        "seed": args.seed,
    }
    _emit(obj, args, [f"itinerary {obj['itinerary']}", f"final {q.literal()}"])
    return EXIT_OK


def cmd_component(args, ctx) -> int:
    p = _parse_point(args.point)
    comp = find_periodic_component(ctx.wedge, p, ctx.max_iter)
    obj = comp.to_obj()
    obj["point_periods"] = component_periods(comp).to_obj()
    obj["seed"] = args.seed
    _emit(
        obj,
        args,
        [
            f"period {comp.period}, rotation l={comp.rotation_l}, "
            f"center {comp.center.literal()}, {len(comp.region.vertices)} vertices"
        ],
    )
    return EXIT_OK


def cmd_first_return(args, ctx) -> int:
    domain = _domain(ctx, args.region)
    rs = first_return_map(ctx.wedge, domain, ctx.max_iter)
    obj = rs.to_obj()
    obj["seed"] = args.seed
    sizes, nonconvex = rs.shape_census()
    obj["census"] = {"vertex_counts": sizes, "nonconvex": nonconvex}
    _emit(
        obj,
        args,
        [
            f"{len(rs.pieces)} pieces, vertex counts {sizes}, "
            f"return times {[p.return_time for p in rs.pieces]}"
        ],
    )
    return EXIT_OK


def cmd_verify_partition(args, ctx) -> int:
    domain = _domain(ctx, args.region)
    rep = verify_partition(
        ctx.wedge,
        domain,
        label=args.region,
        max_events=ctx.max_iter,
        max_iter=ctx.max_iter,
    )
    obj = rep.to_obj()
    obj["seed"] = args.seed
    _emit(
        obj,
        args,
        [
            f"{rep.n_components} complementary components, "
            f"periods {sorted(rep.periods)}, exact identity {rep.exact_identity}"
        ],
    )
    return EXIT_OK


def cmd_aperiodic(args, ctx) -> int:
    wit = aperiodic_witness(
        ctx.wedge,
        ctx.sim,
        steps=args.steps,
        depth=args.depth,
        verify_spiral=args.verify_spiral,
        max_iter=ctx.max_iter,
    )
    obj = wit.to_obj()
    obj["seed"] = args.seed
    if args.emit_spiral:
        spiral_obj = {
            "y": obj["y"],
            "regions": [region_to_obj(reg) for reg in wit.spiral],
        }
        with _open_out(args.emit_spiral) as fh:
            json.dump(spiral_obj, fh, indent=2, sort_keys=True)
    _emit(
        obj,
        args,
        [
            f"y = {wit.y.literal()}",
            f"no return within {wit.steps_checked} steps"
            + (" (boundary hit)" if wit.boundary_hit else ""),
            f"nesting depth {wit.nesting_depth}, period lower bound {wit.period_lower_bound}",
        ],
    )
    return EXIT_OK


def cmd_periods(args, ctx) -> int:
    pset = full_period_set(args.bound)
    obj = pset.to_obj(witnesses=args.witnesses)
    obj["seed"] = args.seed
    if args.json:
        with _open_out(args.json) as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        _emit(
            {"wrote": args.json, "n_periods": len(pset.periods), "seed": args.seed},
            args,
            [f"wrote {len(pset.periods)} periods to {args.json}"],
        )
    else:
        _emit(obj, args, [" ".join(str(p) for p in pset.periods)])
    return EXIT_OK


def cmd_render(args, ctx) -> int:
    if args.what == "table":
        scene = scene_table(ctx.table, ctx.wedge)
    elif args.what == "components":
        comps = ctx.base_components()
        scene = scene_components(ctx.wedge, [comps[i] for i in range(1, 5)])
    elif args.what == "spiral":
        wit = aperiodic_witness(
            ctx.wedge, ctx.sim, steps=200, depth=5, verify_spiral=6, max_iter=ctx.max_iter
        )
        scene = scene_spiral(ctx.sim, wit)
    elif args.what in ("partition-z4", "partition-z14"):
        scene = scene_partition(ctx.partition(args.what.removeprefix("partition-")))
    else:
        raise _Usage(f"unknown figure {args.what!r}")
    data = render_svg(scene)
    with _open_out(args.out, "wb") as fh:
        fh.write(data)
    _emit(
        {"what": args.what, "wrote": args.out, "bytes": len(data), "seed": args.seed},
        args,
        [f"wrote {args.out} ({len(data)} bytes)"],
    )
    return EXIT_OK


def _check_names(text: str) -> list:
    names = [n.strip() for n in text.split(",") if n.strip()]
    bad = [n for n in names if n not in CHECK_NAMES]
    if bad:
        raise _Usage(f"unknown checks: {bad}; available: {CHECK_NAMES}")
    return names


def cmd_verify(args, ctx) -> int:
    names = CHECK_NAMES if args.only is None else _check_names(args.only)
    skip = _check_names(args.skip or "")
    names = [n for n in names if n not in skip]
    if not names:
        raise _Usage("no checks selected")

    width = max(len(n) for n in names) + 2
    failed = 0
    inconclusive = 0

    def progress(res):
        nonlocal failed, inconclusive
        mark = "PASS" if res.ok else "FAIL"
        if not res.ok and res.error and res.error.startswith("inconclusive"):
            mark = "INCONCLUSIVE"
            inconclusive += 1
        elif not res.ok:
            failed += 1
        line = f"{res.name:<{width}} {mark:<12} {res.seconds:9.2f}s"
        if res.error:
            line += f"  {res.error}"
        if args.format == "text":
            print(line, flush=True)

    # the file is opened before the battery runs, so a path that cannot be
    # written fails at once, not after every check
    with _open_out(args.json) if args.json else contextlib.nullcontext() as fh:
        results = run_checks(names, ctx, progress=progress)
        obj = {"seed": args.seed, "results": [r.to_obj() for r in results]}
        if fh is not None:
            json.dump(obj, fh, indent=2)
    ok = sum(1 for r in results if r.ok)
    _emit({**obj, "passed": ok}, args, [f"{ok}/{len(results)} checks passed (seed={args.seed})"])
    if failed:
        return EXIT_FAIL
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dodeca",
        description="Exact outer-billiard engine for the regular 12-gon",
    )
    ap.add_argument("--format", choices=["json", "text"], default="text")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    ap.add_argument(
        "--max-iter", type=int, default=None, help="override the iteration caps"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct the table and wedge system")
    p.add_argument("--dump-json", action="store_true")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("orbit", help="iterate an orbit and print its itinerary")
    p.add_argument("--point", required=True, help='exact literal "x,y"')
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--backward", type=int, default=0)
    p.add_argument("--map", choices=["T", "Tprime"], default="Tprime")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("component", help="periodic component containing a point")
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_component)

    p = sub.add_parser("first-return", help="first-return system of a region")
    p.add_argument(
        "--region", required=True, help="z1|z4|z14|x|zp|level3 or a region JSON file"
    )
    p.set_defaults(func=cmd_first_return)

    p = sub.add_parser("verify-partition", help="tube partition of the rocket")
    p.add_argument("--region", required=True, help="z4|z14|level3 or a JSON file")
    p.set_defaults(func=cmd_verify_partition)

    p = sub.add_parser("aperiodic", help="exact aperiodic-point certificate")
    p.add_argument("--steps", type=int, default=10**4)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--verify-spiral", type=int, default=8)
    p.add_argument("--emit-spiral", default=None, metavar="FILE")
    p.set_defaults(func=cmd_aperiodic)

    p = sub.add_parser("periods", help="enumerate all possible orbit periods")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--json", default=None, metavar="FILE")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("render", help="render a figure to a deterministic SVG")
    p.add_argument(
        "--what",
        required=True,
        help="table|components|spiral|partition-z4|partition-z14",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="run the full verification battery")
    p.add_argument("--only", default=None, help="comma-separated check names")
    p.add_argument("--skip", default=None, help="comma-separated check names")
    p.add_argument("--json", default=None, metavar="FILE")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cap = _max_iter(args)
        return args.func(args, Context(seed=args.seed, max_iter=cap))
    except (_Usage, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except tuple(kind for kind, _, _ in VERDICTS) as exc:
        _, code, name = next(v for v in VERDICTS if isinstance(exc, v[0]))
        obj = {"error": name, "detail": str(exc), "seed": args.seed}
        if isinstance(exc, GraneError):
            obj["steps_done"] = exc.steps_done
        _emit(obj, args, [f"{name}: {exc}"])
        return code


if __name__ == "__main__":
    sys.exit(main())
