"""Command-line front door.

Artifact commands (invert, compactify, generate) write CSV files and
print a small JSON report to stdout; report commands (distortion,
cones, verify) print their JSON report to stdout or write it to
--output.  Diagnostics go to stderr.  Every randomized behavior is a
pure function of --seed, so repeated invocations with equal flags
produce byte-identical output.

Exit codes: 0 success, 1 failed verification assertion, 2 parse or
usage error, 3 origin-hypothesis violation, 4 degenerate data; each
toolkit error class in ``bilip.errors`` states its own code and prefix.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from . import fixtures, verify
from .cones import ConeKind, asymptotic_directions, check_fraction, link, verify_cone_exchange
from .distortion import DEFAULT_RANDOM_PAIRS, AllPairs, SeededRandom, estimate_bilip
from .errors import BilipError, DomainError, ParseError
from .geometry import PointCloud, invert
from .maps import SamplerConfig, compactify_map, invert_map, restrict_map, sample_analytic, scaling_analytic
from .serialize import dumps_report, load_cloud, load_map, save_cloud, save_map, sidecar_path

USAGE_EXIT = 2


def _reject_unread(args, rules) -> None:
    """Raise "OPTION REASON" as a usage error for the first rule given but not read.

    A rule is (option, argparse dest, read, reason); an option is given
    when its value is not None.  Commands check before reading any input,
    so a dropped option costs no work.
    """
    for option, dest, read, reason in rules:
        if getattr(args, dest) is not None and not read:
            raise DomainError(f"{option} {reason}")


def _shell_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"shell {text!r} is not R_MIN:R_MAX")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"shell {text!r} holds non-numeric bounds")
    if not 0.0 < lo < hi:
        raise argparse.ArgumentTypeError(f"shell {text!r} needs 0 < R_MIN < R_MAX")
    return lo, hi


def _bound_text(bound: float) -> str:
    """``bound`` in ``:g`` form when that reads back to it, else its repr."""
    short = f"{bound:g}"
    return short if float(short) == bound else repr(bound)


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed {text!r} is not a non-negative integer")
    return int(text)


def _join_option_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Join ``--n -1e3`` into ``--n=-1e3`` for every option of the subcommand that takes a value.

    argparse takes a token that starts with "-" for an option unless it
    looks like -5 or -.5, so ``--n -1e3`` failed as "expected one argument"
    instead of with the option's own reason.  A token that names, or
    abbreviates, one of the subcommand's options (``--`` and ``-`` too)
    stays an option.
    """
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None:
        return argv
    options = [o for a in sub._actions for o in a.option_strings]
    valued = {o for a in sub._actions if a.option_strings and a.nargs is None for o in a.option_strings}
    joined: list[str] = []
    for token in argv:
        head = token.split("=", 1)[0]
        if (joined and joined[-1] in valued and token.startswith("-")
                and not any(o.startswith(head) for o in options)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilip",
        description="Transforms, distortion estimates, and cone checks for sampled maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="conjugate a map (or push a cloud) through inversion")
    p.add_argument("input")
    p.add_argument("--output", required=True, help="path for the inverted CSV")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("compactify", help="push a sampled map onto spheres")
    p.add_argument("input")
    p.add_argument("--output", required=True, help="path for the compactified CSV")
    p.set_defaults(func=cmd_compactify)

    p = sub.add_parser("distortion", help="estimate bi-Lipschitz constants of a map file")
    p.add_argument("input")
    p.add_argument("--strategy", choices=("all", "random"), default="all")
    p.add_argument("--pairs", type=int, default=None,
                   help=f"random-strategy sample count (default {DEFAULT_RANDOM_PAIRS})")
    p.add_argument("--seed", type=_seed, default=None, help="random-strategy seed (default 0)")
    p.add_argument("--shell", type=_shell_range, default=None, metavar="R_MIN:R_MAX")
    p.add_argument("--output", default=None, help="report path (stdout when absent)")
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("cones", help="asymptotic directions and the inversion exchange")
    p.add_argument("input")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--shell", type=_shell_range, default=None, metavar="R_MIN:R_MAX",
                   help="closed radius range of the link to count")
    p.add_argument("--directions", default=None, help="write AtInfinity directions as cloud CSV")
    p.add_argument("--output", default=None, help="report path (stdout when absent)")
    p.set_defaults(func=cmd_cones)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=("all",) + verify.SUITE_NAMES)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--pairs", type=int, default=None,
                   help="pair count for the identity sweeps (default 2000)")
    p.add_argument("--output", default=None, help="report path (stdout when absent)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a deterministic fixture")
    p.add_argument("fixture", help="ray | shifted-line | spiral | scaling | non-example | registry name")
    p.add_argument("--dim", type=int, default=None, help="dimension of ray and scaling (default 2)")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=_seed, default=None, help="seed of ray and the maps (default 0)")
    p.add_argument("--lambda", dest="scale_factor", type=float, default=None,
                   help="factor for the scaling fixture")
    p.add_argument("--shell", type=_shell_range, default=None, metavar="R_MIN:R_MAX",
                   help="radius range, or t range of shifted-line (default 0.01:100, shifted-line 1:1000)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)
    return parser


def _is_map_file(path: str) -> bool:
    return sidecar_path(path).exists()


def cmd_invert(args) -> tuple[dict, int]:
    if _is_map_file(args.input):
        result = invert_map(load_map(args.input))
        save_map(result, args.output)
        payload = {
            "command": "invert",
            "kind": "map",
            "input": args.input,
            "written": args.output,
            "sidecar": str(sidecar_path(args.output)),
            "pairs": result.n_pairs,
        }
    else:
        cloud = load_cloud(args.input)
        result = PointCloud(invert(cloud.points), cloud.label)
        save_cloud(result, args.output)
        payload = {
            "command": "invert",
            "kind": "cloud",
            "input": args.input,
            "written": args.output,
            "points": len(result),
        }
    return payload, 0


def cmd_compactify(args) -> tuple[dict, int]:
    if not _is_map_file(args.input):
        raise ParseError(f"{args.input} has no sidecar; compactify needs a map file")
    result = compactify_map(load_map(args.input))
    save_map(result, args.output)
    payload = {
        "command": "compactify",
        "input": args.input,
        "written": args.output,
        "sidecar": str(sidecar_path(args.output)),
        "pairs": result.n_pairs,
        "pole_pair": result.unbounded_domain,
    }
    return payload, 0


def cmd_distortion(args) -> tuple[dict, int]:
    drawn = args.strategy == "random"
    _reject_unread(args, (
        ("--pairs", "pairs", drawn, "applies only to --strategy random"),
        ("--seed", "seed", drawn, "applies only to --strategy random"),
    ))
    m = load_map(args.input)
    shell_text = None
    if args.shell is not None:
        lo, hi = args.shell
        m = restrict_map(m, lo, hi)
        shell_text = f"{_bound_text(lo)}:{_bound_text(hi)}"
    if args.strategy == "all":
        strategy = AllPairs()
    else:
        given = {"samples": args.pairs, "seed": args.seed}
        strategy = SeededRandom(**{k: v for k, v in given.items() if v is not None})
    report = estimate_bilip(m, strategy)
    payload = {
        "command": "distortion",
        "input": args.input,
        "L_expand": report.l_expand,
        "L_contract": report.l_contract,
        "bilip_constant": report.bilip_constant,
        "witnesses": {
            "expand": list(report.witness_expand),
            "contract": list(report.witness_contract),
        },
        "pairs_evaluated": report.pairs_evaluated,
        "pairs_skipped": report.pairs_skipped,
        "pairs_self": report.pairs_self,
        "strategy": args.strategy,
        "shell": shell_text,
    }
    return payload, 0


def cmd_cones(args) -> tuple[dict, int]:
    # cheap checks first: a bad fraction or an empty link fails before the cone pass
    check_fraction(args.fraction)
    cloud = load_cloud(args.input)
    linked = None if args.shell is None else len(link(cloud, *args.shell))
    exchange = verify_cone_exchange(cloud, args.fraction)
    at_origin = asymptotic_directions(cloud, ConeKind.AT_ORIGIN, args.fraction)
    at_infinity = asymptotic_directions(cloud, ConeKind.AT_INFINITY, args.fraction)
    payload = {
        "command": "cones",
        "input": args.input,
        "fraction": args.fraction,
        "at_origin": {
            "count": len(at_origin),
            "radius_min": float(at_origin.source_radii.min()),
            "radius_max": float(at_origin.source_radii.max()),
        },
        "at_infinity": {
            "count": len(at_infinity),
            "radius_min": float(at_infinity.source_radii.min()),
            "radius_max": float(at_infinity.source_radii.max()),
        },
        "exchange": {
            "infinity_to_origin": exchange.infinity_to_origin,
            "origin_to_infinity": exchange.origin_to_infinity,
        },
    }
    # shells that meet in radius share samples, so their exchange check is trivial
    inner_max = payload["at_origin"]["radius_max"]
    outer_min = payload["at_infinity"]["radius_min"]
    payload["shells_overlap"] = outer_min <= inner_max
    payload["shell_gap_log"] = float(np.log(outer_min / inner_max))
    if args.shell is not None:
        lo, hi = args.shell
        payload["link"] = {"r_min": lo, "r_max": hi, "count": linked}
    if args.directions is not None:
        save_cloud(PointCloud(at_infinity.directions, "directions"), args.directions)
        payload["directions_written"] = args.directions
    return payload, 0


def cmd_verify(args) -> tuple[dict, int]:
    _reject_unread(args, (
        ("--pairs", "pairs", args.suite in ("all", "identities"),
         f"applies only to the identities suite, not to {args.suite}"),
    ))
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    options = {} if args.pairs is None else {"pairs": args.pairs}
    suites = [verify.run_suite(name, seed=args.seed, **(options if name == "identities" else {}))
              for name in names]
    passed = all(s["passed"] for s in suites)
    payload = {"command": "verify", "passed": passed, "suites": suites}
    if not passed:
        first = next(
            c["name"]
            for s in suites
            for c in s["checks"]
            if c["tolerance"] is not None and not c["passed"]
        )
        print(f"first failed check: {first}", file=sys.stderr)
    return payload, 0 if passed else 1


def cmd_generate(args) -> tuple[dict, int]:
    name = args.fixture
    _reject_unread(args, (
        ("--dim", "dim", name in ("ray", "scaling"), f"applies only to ray and scaling, not to {name}"),
        ("--lambda", "scale_factor", name == "scaling", f"applies only to scaling, not to {name}"),
        ("--seed", "seed", name not in ("spiral", "shifted-line"),
         f"applies only to ray and the sampled maps, not to {name}"),
    ))
    dim = 2 if args.dim is None else args.dim
    seed = args.seed or 0
    lo, hi = args.shell or ((1.0, 1e3) if name == "shifted-line" else (1e-2, 1e2))
    if name in fixtures.CLOUD_KINDS:
        cloud = fixtures.cloud(name, dim=dim, count=args.n, seed=seed, r_min=lo, r_max=hi)
        save_cloud(cloud, args.output)
        return {
            "command": "generate",
            "fixture": name,
            "written": args.output,
            "points": len(cloud),
        }, 0
    if name == "scaling":
        if args.scale_factor is None:
            raise ParseError("generate scaling needs --lambda")
        f = scaling_analytic(args.scale_factor, dim=dim)
        m = sample_analytic(f, SamplerConfig(args.n, lo, hi, seed))
    else:
        member = "radial-square" if name == "non-example" else name
        m = fixtures.map_samples(member, count=args.n, seed=seed, r_min=lo, r_max=hi)
    save_map(m, args.output)
    return {
        "command": "generate",
        "fixture": name,
        "written": args.output,
        "sidecar": str(sidecar_path(args.output)),
        "pairs": m.n_pairs,
    }, 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_option_values(parser, sys.argv[1:] if argv is None else list(argv)))
    report_path = args.output if args.command in ("distortion", "cones", "verify") else None
    try:
        payload, code = args.func(args)
        text = dumps_report(payload)
        if report_path is not None:
            with open(report_path, "w") as fh:
                fh.write(text)
    except BilipError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # a command reads only its input and that file's sidecar; every other path it writes
        source = getattr(args, "input", None)
        read = source is not None and exc.filename is not None and (
            pathlib.Path(exc.filename) in (pathlib.Path(source), sidecar_path(source)))
        print(f"cannot {'read input' if read else 'write output'}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except MemoryError as exc:
        # a count too large to allocate, such as --n 10**15; numpy names the refused array
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    if report_path is None:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
