"""Command-line interface.

Exit codes: 0 success, 1 a verification check failed (disproof), 2 an
iteration cap was exhausted (inconclusive), 3 usage or parse error.  Every
output records the seed and caps that produced it, so runs are exactly
reproducible.  The environment variable DODECA_MAX_ITER overrides the
default iteration caps globally.
"""

from __future__ import annotations

import argparse
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
from .search import find_periodic_component, first_return_map, verify_partition
from .selfsim import aperiodic_witness, build_similarity
from .table import build_table

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _max_iter(args) -> int:
    env = os.environ.get("DODECA_MAX_ITER")
    if args.max_iter is not None:
        return args.max_iter
    if env:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"bad DODECA_MAX_ITER value: {env!r}")
    return 10**6


def _emit(obj, args, text_lines=None):
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines if text_lines is not None else [json.dumps(obj)]:
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
    except OSError as exc:
        raise _Usage(f"cannot read region file {name!r}: {exc}")


def cmd_build(args) -> int:
    table, w = build_table()
    if not args.dump_json:
        print("construction OK: 12-gon table, wedge system, rocket and necklace built")
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


def cmd_orbit(args) -> int:
    table, w = build_table()
    p = _parse_point(args.point)
    symbols = []
    back_symbols = []
    q = p
    try:
        if args.map == "T":
            for _ in range(args.backward):
                q, i = table.step(q, forward=False)
                back_symbols.append(i)
            back_symbols.reverse()
            q2 = p
            for _ in range(args.steps):
                q2, i = table.step(q2)
                symbols.append(i)
        else:
            it = w.itinerary(p, args.steps, args.backward)
            if not it.complete:
                raise GraneError(
                    "orbit hit a boundary",
                    steps_done=(it.fwd_fail if it.fwd_fail is not None else it.bwd_fail),
                )
            symbols = list(it.symbols[it.start_offset :])
            back_symbols = list(it.symbols[: it.start_offset])
            q2 = p
            for _ in range(args.steps):
                q2, _ = w.step(q2)
    except GraneError as exc:
        _emit(
            {
                "error": "boundary",
                "detail": str(exc),
                "steps_done": exc.steps_done,
                "seed": args.seed,
            },
            args,
            [f"boundary hit: {exc}"],
        )
        return EXIT_INCONCLUSIVE
    sep = "," if args.map == "T" else ""
    obj = {
        "map": args.map,
        "point": args.point,
        "symbols_backward": back_symbols,
        "symbols_forward": symbols,
        "itinerary": sep.join(str(s) for s in back_symbols)
        + "."
        + sep.join(str(s) for s in symbols),
        "final": [q2.x.literal(), q2.y.literal()],
        "seed": args.seed,
    }
    _emit(obj, args, [f"itinerary {obj['itinerary']}", f"final {q2.literal()}"])
    return EXIT_OK


def cmd_component(args) -> int:
    _, w = build_table()
    p = _parse_point(args.point)
    try:
        comp = find_periodic_component(w, p, _max_iter(args))
    except GraneError as exc:
        _emit({"error": "boundary", "detail": str(exc)}, args)
        return EXIT_INCONCLUSIVE
    except InconclusiveError as exc:
        _emit({"error": "inconclusive", "detail": str(exc)}, args)
        return EXIT_INCONCLUSIVE
    from .search import component_periods

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


def cmd_first_return(args) -> int:
    ctx = Context(seed=args.seed)
    domain = _domain(ctx, args.region)
    try:
        rs = first_return_map(ctx.wedge, domain, _max_iter(args))
    except SelfReturnError as exc:
        _emit({"error": "self-return violated", "detail": str(exc)}, args)
        return EXIT_FAIL
    except InconclusiveError as exc:
        _emit({"error": "inconclusive", "detail": str(exc)}, args)
        return EXIT_INCONCLUSIVE
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


def cmd_verify_partition(args) -> int:
    ctx = Context(seed=args.seed)
    domain = _domain(ctx, args.region)
    try:
        rep = verify_partition(
            ctx.wedge,
            domain,
            label=args.region,
            max_events=_max_iter(args),
            max_iter=_max_iter(args),
        )
    except InconclusiveError as exc:
        _emit({"error": "inconclusive", "detail": str(exc)}, args)
        return EXIT_INCONCLUSIVE
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
    return EXIT_OK if rep.exact_identity else EXIT_FAIL


def cmd_aperiodic(args) -> int:
    _, w = build_table()
    s = build_similarity(w)
    try:
        wit = aperiodic_witness(
            w, s, steps=args.steps, depth=args.depth, verify_spiral=args.verify_spiral
        )
    except InconclusiveError as exc:
        _emit({"error": "inconclusive", "detail": str(exc)}, args)
        return EXIT_INCONCLUSIVE
    obj = wit.to_obj()
    obj["seed"] = args.seed
    if args.emit_spiral:
        from .geom import region_to_obj as r2o

        spiral_obj = {
            "y": obj["y"],
            "regions": [r2o(reg) for reg in wit.spiral],
        }
        with open(args.emit_spiral, "w", encoding="utf-8") as fh:
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


def cmd_periods(args) -> int:
    pset = full_period_set(args.bound)
    obj = pset.to_obj(witnesses=args.witnesses)
    obj["seed"] = args.seed
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
        print(f"wrote {len(pset.periods)} periods to {args.json}")
    else:
        _emit(obj, args, [" ".join(str(p) for p in pset.periods)])
    return EXIT_OK


def cmd_render(args) -> int:
    ctx = Context(seed=args.seed)
    table, w = ctx.system
    if args.what == "table":
        scene = scene_table(table, w)
    elif args.what == "components":
        comps = [find_periodic_component(w, w.O[i], _max_iter(args)) for i in range(1, 5)]
        scene = scene_components(w, comps)
    elif args.what == "spiral":
        wit = aperiodic_witness(w, ctx.sim, steps=200, depth=5, verify_spiral=6)
        scene = scene_spiral(ctx.sim, wit)
    elif args.what in ("partition-z4", "partition-z14"):
        domain = ctx.domain(args.what.removeprefix("partition-"))
        rep = verify_partition(w, domain, label=args.what, max_iter=_max_iter(args))
        scene = scene_partition(rep)
    else:
        raise _Usage(f"unknown figure {args.what!r}")
    data = render_svg(scene)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out} ({len(data)} bytes)")
    return EXIT_OK


def _check_names(text: str) -> list:
    names = [n.strip() for n in text.split(",") if n.strip()]
    bad = [n for n in names if n not in CHECK_NAMES]
    if bad:
        raise _Usage(f"unknown checks: {bad}; available: {CHECK_NAMES}")
    return names


def cmd_verify(args) -> int:
    names = CHECK_NAMES if args.only is None else _check_names(args.only)
    skip = _check_names(args.skip or "")
    names = [n for n in names if n not in skip]
    if not names:
        raise _Usage("no checks selected")
    cap = _max_iter(args)
    ctx = Context(seed=args.seed, max_iter=cap, max_events=cap)

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
        print(line, flush=True)

    results = run_checks(names, ctx, progress=progress)
    ok = sum(1 for r in results if r.ok)
    print(f"{ok}/{len(results)} checks passed (seed={args.seed})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "results": [r.to_obj() for r in results]}, fh, indent=2)
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
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
