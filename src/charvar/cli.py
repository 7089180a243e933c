"""Command-line workbench.

Subcommands: betti, alexander, jumploci, certify, probe, kernel, window,
raag, bb, flag, pencil, oracle.  Output is a plain-text table or, with
--json, an envelope {tool, version, command, status, seed, result} that
validates against the schema shipped in charvar/schemas/.  --seed draws
the sampled characters of certify, probe and jumploci --r; only these
three take it, and every other command prints a null seed.

Exit codes: 0 on success, 2 when a certification's hypotheses fail, 1 on
errors, a rejected command line included (in JSON mode errors carry
machine-readable codes, a rejected command line ``usage``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .certify import certify_non_fp, generic_vanishing_probe, kernel_report_univariate
from .complexes import DEFAULT_WINDOW_CEILING, check_window_size, window_homology
from .constructions import (bestvina_brady, build_model, complete_graph,
                            cycle_graph, direct_product, edgeless_graph,
                            flag_complex, free_group, model_along, octahedron_graph,
                            parse_graph_text, pencil_numerology, raag,
                            reduced_homology, surface_group)
from .covers import finite_cover_oracle
from .errors import CharvarError, TooManyMinors
from .fox import alexander_matrix
from .jumploci import group_homology_scope, is_full_v1, is_full_vr_product, v1_ideal
from .laurent import GENERIC, Character
from .lmatrix import DEFAULT_MINOR_CEILING
from .parser import parse_presentation
from .presentations import EpimorphismToZm


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        # the first word is the subcommand, as no top-level option takes a
        # value; only a known subcommand has an envelope
        command = next((a for a in argv if not a.startswith("-")), None)
        args = argparse.Namespace(command=command,
                                  json=command in COMMANDS and "--json" in argv)
        return emit_error(args, "usage", str(exc))
    if args.command is None:
        parser.print_help()
        return 1
    try:
        status, result = COMMANDS[args.command](args)
    except CharvarError as exc:
        return emit_error(args, exc.code, str(exc))
    except (ValueError, OSError) as exc:
        return emit_error(args, "usage", str(exc))
    emit(args, status, result)
    return 2 if status == "hypothesis-failed" else 0


class _Parser(argparse.ArgumentParser):
    # a command line the parser rejects is an error like any other (exit
    # code 1), not argparse's exit with code 2
    def error(self, message):
        raise argparse.ArgumentError(None, message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built once per process: ``parse_args`` fills a new
    namespace on every call, so no query sees another's arguments."""
    parser = _Parser(
        prog="charvar",
        description="characteristic varieties, twisted homology, and "
                    "non-FP_r certificates for finitely presented groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def group_flags(p, nu=False, seed=False):
        p.add_argument("--input", help="presentation-language file")
        p.add_argument("--preset",
                       choices=["surface", "torus", "free", "product-surface",
                                "product-free", "stallings", "bb-octahedron",
                                "bb-c4"],
                       help="catalog group")
        p.add_argument("--genus", help="genus (int, or comma list for products)")
        p.add_argument("--rank", type=int, help="free rank for --preset free")
        p.add_argument("--ranks", help="comma list of free ranks for product-free")
        if nu:
            p.add_argument("--nu", default=None,
                           help="ones | first | pencil | explicit rows "
                                "'1,0;0,1;...' (one row per generator)")
        p.add_argument("--json", action="store_true", help="JSON output")
        if seed:
            p.add_argument("--seed", type=int, default=0,
                           help="draws the sampled characters of certify, "
                                "probe and jumploci --r")

    def graph_flags(p):
        p.add_argument("--graph", help="graph file (v/e line format)")
        p.add_argument("--graph-name",
                       help="cycle:N | complete:N | edgeless:N | octahedron")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("betti", help="twisted Betti numbers at a character")
    group_flags(p)
    p.add_argument("--char", default="generic",
                   help="comma list of nonzero rationals, or 'generic'")

    p = sub.add_parser("alexander", help="Alexander matrix dump")
    group_flags(p)

    p = sub.add_parser("jumploci", help="depth-t ideal and fullness verdict")
    group_flags(p, seed=True)
    p.add_argument("--t", type=int, default=1, help="jump depth")
    p.add_argument("--r", type=int, help="also decide degree-r fullness, "
                                         "for any r >= 1; r >= 2 needs a "
                                         "catalog (aspherical) group")
    p.add_argument("--minor-ceiling", type=int,
                   help="default: $CHARVAR_MINOR_CEILING, else "
                        f"{DEFAULT_MINOR_CEILING}")

    p = sub.add_parser("certify", help="non-FP_r certificate for ker(nu)")
    group_flags(p, nu=True, seed=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--strategy", default="auto", choices=["auto", "generic-rank"],
                   help="both take the one route, the exact generic b_r")

    p = sub.add_parser("probe", help="generic-vanishing sampling probe")
    group_flags(p, nu=True, seed=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("kernel", help="exact rational homology of ker(nu) as a "
                                      "Q[t^+-1]-module (nu onto Z)")
    group_flags(p, nu=True)
    p.add_argument("--top-degree", type=int, default=2)

    p = sub.add_parser("window", help="homology growth over finite windows")
    group_flags(p, nu=True)
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--window-ceiling", type=int,
                   help="default: $CHARVAR_WINDOW_CEILING, else "
                        f"{DEFAULT_WINDOW_CEILING}")

    p = sub.add_parser("oracle", help="index-2 cover consistency check")
    group_flags(p, nu=True)

    p = sub.add_parser("raag", help="right-angled Artin group of a graph")
    graph_flags(p)

    p = sub.add_parser("bb", help="graph group with the all-ones map to Z")
    graph_flags(p)

    p = sub.add_parser("flag", help="flag complex diagnostics")
    graph_flags(p)

    p = sub.add_parser("pencil", help="branched-cover pencil numerology")
    p.add_argument("--genus", required=True, help="comma list, each >= 2")
    p.add_argument("--json", action="store_true")

    return parser


# -- input resolution ---------------------------------------------------------


def resolve_group(args):
    """Returns (presentation, default_nu_spec)."""
    if getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_presentation(fh.read()), None
    preset = getattr(args, "preset", None)
    if not preset:
        raise ValueError("need --input or --preset")
    if preset == "surface":
        return surface_group(_int_arg(args.genus, "--genus")), "first"
    if preset == "torus":
        return surface_group(1), "first"
    if preset == "free":
        if args.rank is None:
            raise ValueError("--preset free needs --rank")
        return free_group(args.rank), "ones"
    if preset == "product-surface":
        genus = _int_list(args.genus, "--genus")
        if len(genus) < 2:
            raise ValueError("product-surface needs at least two genus entries")
        return direct_product([surface_group(g) for g in genus]), "pencil"
    if preset == "product-free":
        ranks = _int_list(args.ranks, "--ranks")
        if len(ranks) < 2:
            raise ValueError("product-free needs at least two ranks")
        return direct_product([free_group(k) for k in ranks]), "ones"
    if preset == "stallings":
        return direct_product([free_group(2)] * 3), "ones"
    if preset == "bb-octahedron":
        return bestvina_brady(octahedron_graph()).presentation, "ones"
    if preset == "bb-c4":
        return bestvina_brady(cycle_graph(4)).presentation, "ones"
    raise ValueError(f"unknown preset {preset!r}")


def resolve_nu(presentation, spec: str) -> EpimorphismToZm:
    """--nu patterns.  'ones' sends every generator to 1 in Z; 'first'
    sends only the first generator to 1; 'pencil' sends the first two
    generators of every curve factor to the two basis vectors of a shared
    Z^2; explicit rows are semicolon-separated integer vectors, one per
    generator, and the first row's length is the target rank.  Only the
    images are built here: the library entry point that takes the map
    validates it (``validate_epimorphism``)."""
    n = presentation.ngens
    if spec == "ones":
        return EpimorphismToZm(1, ((1,),) * n)
    if spec == "first":
        return EpimorphismToZm(1, ((1,),) + ((0,),) * (n - 1))
    if spec == "pencil":
        if not presentation.factors:
            raise ValueError("--nu pencil needs a product preset")
        images = []
        for f in presentation.factors:
            if f.ngens < 2:
                raise ValueError("--nu pencil needs >= 2 generators per factor")
            images += [(1, 0), (0, 1)] + [(0, 0)] * (f.ngens - 2)
        return EpimorphismToZm(2, tuple(images))
    images = tuple(tuple(int(x) for x in chunk.split(",")) for chunk in spec.split(";"))
    if len(images) != n:
        raise ValueError(f"--nu gives {len(images)} rows for {n} generators")
    return EpimorphismToZm(len(images[0]), images)


def resolve_group_and_nu(args, own_nu: str, onto_z: bool = False):
    """Returns (presentation, nu): --nu if given, even empty, else the
    preset's default, else ``own_nu``.  A command that needs a map onto Z
    (``onto_z``) takes ``own_nu`` over a preset default onto Z^2, as
    'pencil' is.  The map is not validated here (``resolve_nu``)."""
    presentation, preset_nu = resolve_group(args)
    given = args.nu is not None
    nu = resolve_nu(presentation, args.nu if given else preset_nu or own_nu)
    if onto_z and not given and nu.target_rank != 1:
        nu = resolve_nu(presentation, own_nu)
    return presentation, nu


def resolve_graph(args):
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph_text(fh.read())
    name = getattr(args, "graph_name", None)
    if not name:
        raise ValueError("need --graph or --graph-name")
    if name == "octahedron":
        return octahedron_graph()
    kind, _, count = name.partition(":")
    if not count:
        raise ValueError(f"unknown graph {name!r}")
    n = int(count)
    if kind == "cycle":
        return cycle_graph(n)
    if kind == "complete":
        return complete_graph(n)
    if kind == "edgeless":
        return edgeless_graph(n)
    raise ValueError(f"unknown graph {name!r}")


def _ceiling(flag_value, flag: str, variable: str, default: int) -> int:
    """A work ceiling: the flag if given, else the environment variable,
    else the default.  A malformed or negative value is a usage error of
    the command that reads it."""
    value, source = flag_value, flag
    if value is None:
        text = os.environ.get(variable)
        if text is None:
            return default
        try:
            value, source = int(text), variable
        except ValueError:
            raise ValueError(f"{variable}={text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{source} must be >= 0, got {value}")
    return value


def _int_arg(value, flag) -> int:
    if value is None:
        raise ValueError(f"missing {flag}")
    return int(value)


def _int_list(value, flag) -> list[int]:
    if value is None:
        raise ValueError(f"missing {flag}")
    return [int(x) for x in value.split(",")]


def parse_character(text: str, nvars: int) -> Character:
    if text == "generic":
        return GENERIC
    try:
        coords = [Fraction(x) for x in text.split(",")]
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in the character {text!r}") from exc
    if len(coords) != nvars:
        raise ValueError(f"character needs {nvars} coordinates, got {len(coords)}")
    return Character(coords)


# -- command bodies -----------------------------------------------------------


def cmd_betti(args):
    presentation, _ = resolve_group(args)
    model = build_model(presentation)
    rho = parse_character(args.char, model.nvars)
    profile = model.betti(rho)
    result = {
        "group": presentation.label,
        "character": rho.describe(),
        "betti": list(profile.betti),
        "euler": profile.alternating_sum(),
        "ranks": list(model.ranks),
        "scope": group_homology_scope(model.aspherical),
    }
    if model.abelian.torsion_invariants:
        # characters live on the identity component only; non-identity
        # components of the character group are unsupported, not ignored
        result["h1_torsion"] = list(model.abelian.torsion_invariants)
        result["torus_note"] = ("H_1 has torsion; computations cover the "
                                "identity component of the character group "
                                "only")
    return "ok", result


def cmd_alexander(args):
    presentation, _ = resolve_group(args)
    alex = alexander_matrix(presentation, build_model(presentation).abelian)
    return "ok", {
        "group": presentation.label,
        "rows": alex.rows,
        "cols": alex.cols,
        "variables": alex.nvars,
        "entries": alex.to_text_rows(),
    }


def cmd_jumploci(args):
    ceiling = _ceiling(args.minor_ceiling, "--minor-ceiling", "CHARVAR_MINOR_CEILING",
                       DEFAULT_MINOR_CEILING)
    presentation, _ = resolve_group(args)
    model = build_model(presentation)
    verdict = is_full_v1(model)
    result = {
        "group": presentation.label,
        "depth": args.t,
        "fullness_v1": verdict.to_json_dict(),
    }
    try:
        result["ideal"] = v1_ideal(model, args.t,
                                   ceiling=ceiling).to_json_dict()
    except TooManyMinors as exc:
        # minor enumeration infeasible: report the generic-Betti route,
        # i.e. the maximal depth the generic character already witnesses
        result["ideal"] = None
        result["ideal_fallback"] = {
            "reason": str(exc),
            "generic_b1": verdict.generic_b,
            "max_generic_depth_degree1": verdict.generic_b,
        }
    if args.r is not None:
        result["fullness_vr"] = is_full_vr_product(
            model, args.r, seed=args.seed).to_json_dict()
    return "ok", result


def cmd_certify(args):
    presentation, nu = resolve_group_and_nu(args, "ones")
    certificate = certify_non_fp(presentation, nu, args.r, seed=args.seed)
    status = "ok" if certificate.status == "certified" else "hypothesis-failed"
    return status, certificate.to_json_dict()


def cmd_probe(args):
    presentation, nu = resolve_group_and_nu(args, "ones")
    report = generic_vanishing_probe(presentation, nu, args.r,
                                     trials=args.trials, seed=args.seed)
    return "ok", report.to_json_dict()


def cmd_kernel(args):
    presentation, nu = resolve_group_and_nu(args, "ones", onto_z=True)
    report = kernel_report_univariate(presentation, nu, top_degree=args.top_degree)
    result = report.to_json_dict()
    result["group"] = presentation.label
    return "ok", result


def cmd_window(args):
    ceiling = _ceiling(args.window_ceiling, "--window-ceiling", "CHARVAR_WINDOW_CEILING",
                       DEFAULT_WINDOW_CEILING)
    presentation, nu = resolve_group_and_nu(args, "ones")
    _, model, nubar = model_along(presentation, nu.images)
    # refused before any complex is pushed or tensored
    check_window_size(sum(model.ranks), len(nubar), args.radius, ceiling)
    report = window_homology(model.pushed(nubar), args.radius, ceiling=ceiling)
    result = report.to_json_dict()
    result["group"] = presentation.label
    return "ok", result


def cmd_oracle(args):
    presentation, nu = resolve_group_and_nu(args, "first", onto_z=True)
    report = finite_cover_oracle(presentation, nu)
    result = report.to_json_dict()
    result["group"] = presentation.label
    return "ok", result


def cmd_raag(args):
    graph = resolve_graph(args)
    presentation = raag(graph)
    return "ok", {
        "generators": list(presentation.generators),
        "relators": [r.to_text(presentation.generators)
                     for r in presentation.relators],
        # the clique cube complex has one cell per clique
        "cube_complex_ranks": [len(g) for g in graph.cliques()],
        "connected": graph.is_connected(),
    }


def cmd_bb(args):
    graph = resolve_graph(args)
    data = bestvina_brady(graph)
    return "ok", {
        "generators": list(data.presentation.generators),
        "relators": [r.to_text(data.presentation.generators)
                     for r in data.presentation.relators],
        "nu": {"target_rank": 1,
               "images": [list(v) for v in data.nu.images]},
        "connected": data.connected,
        "complex_ranks": [len(g) for g in graph.cliques()],
    }


def cmd_flag(args):
    graph = resolve_graph(args)
    complex_ = flag_complex(graph)
    by_dim = complex_.simplices()
    return "ok", {
        "facets": [list(f) for f in complex_.facets],
        "simplex_counts": [len(group) for group in by_dim],
        "reduced_betti": list(reduced_homology(complex_)),
    }


def cmd_pencil(args):
    genus = _int_list(args.genus, "--genus")
    return "ok", pencil_numerology(genus).to_json_dict()


COMMANDS = {
    "betti": cmd_betti,
    "alexander": cmd_alexander,
    "jumploci": cmd_jumploci,
    "certify": cmd_certify,
    "probe": cmd_probe,
    "kernel": cmd_kernel,
    "window": cmd_window,
    "oracle": cmd_oracle,
    "raag": cmd_raag,
    "bb": cmd_bb,
    "flag": cmd_flag,
    "pencil": cmd_pencil,
}


# -- output -------------------------------------------------------------------


def envelope(args, status: str, result: dict) -> dict:
    """The JSON envelope; ``seed`` is null for a command without --seed."""
    return {
        "tool": "charvar",
        "version": __version__,
        "command": args.command,
        "status": status,
        "seed": getattr(args, "seed", None),
        "result": result,
    }


def emit(args, status: str, result: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(envelope(args, status, result), sort_keys=True, indent=2))
    else:
        for line in render_text(args.command, status, result):
            print(line)


def emit_error(args, code: str, message: str) -> int:
    if getattr(args, "json", False):
        print(json.dumps(envelope(args, "error",
                                  {"error": {"code": code, "message": message}}),
                         sort_keys=True, indent=2))
    else:
        print(f"error [{code}]: {message}", file=sys.stderr)
    return 1


def render_text(command: str, status: str, result: dict) -> list[str]:
    lines = [f"charvar {command}: {status}"]
    lines.extend(_render_value(result, indent=2))
    return lines


def _render_value(value, indent: int, key: str | None = None) -> list[str]:
    pad = " " * indent
    label = f"{key}: " if key else ""
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"] if key else []
        for k in sorted(value):
            lines.extend(_render_value(value[k], indent + (2 if key else 0), k))
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [f"{pad}{label}{'  '.join(str(x) for x in value)}"]
        lines = [f"{pad}{key}:"] if key else []
        for i, x in enumerate(value):
            lines.extend(_render_value(x, indent + 2, f"[{i}]"))
        return lines
    return [f"{pad}{label}{value}"]


if __name__ == "__main__":
    sys.exit(main())
