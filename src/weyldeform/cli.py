"""Command line front end with deterministic JSON output.

Every subcommand prints one JSON document (or a plain-text rendering
with --format text) and exits 0 on success, 2 when a bounded search
came back empty (no witness up to the degree cap, an unstabilized
dimension), and 1 on bad input.  The split keeps honest negatives
distinguishable from crashes in scripts.

An answer is a pure function of the argument list, so it is rendered
once per distinct argv per process: main keeps the printed text and the
exit code in one memo, which clear_caches() empties, and answers a
repeated argv from it.  The key is the raw argv, so an equal question
spelled differently (a=0.5 against a=1/2) is parsed and answered again,
from the library's own memos.  Only in-process callers of main gain;
the weyldeform entry point makes one call per process.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .ext import ext_table, hull_unobstructed
from .linalg import QMatrix
from .modules import (
    CyclicModule,
    DEFAULT_MAX_DEGREE,
    HARD_CAP,
    IsoWitness,
    PresentedModule,
    iso_witness,
    hom_search,
)
from .reps import (
    RelationViolation,
    Representation,
    UnsupportedDimensionError,
    classify,
    find_proper_submodule,
    is_simple,
    representative,
)
from .versal import (
    SpecializationReport,
    commutative_specialize,
    identify_specialization,
)
from .weyl import WeylSyntaxError, _memo, print_weyl


class CliError(Exception):
    """Bad command line input; rendered as a structured error."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this tool reserves
    # for bounded-search negatives; route errors through CliError instead
    def error(self, message):
        raise CliError(message)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _dimension_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _degree_arg(text: str) -> int:
    value = _dimension_arg(text)
    if not 0 <= value <= HARD_CAP:
        raise argparse.ArgumentTypeError(
            f"max degree must be between 0 and {HARD_CAP}"
        )
    return value


def _collect_params(items: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for item in items:
        name, eq, value = item.partition("=")
        if not eq or not name:
            raise CliError(f"--param expects key=value, got {item!r}")
        try:
            params[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"parameter {name!r} has a bad value {value!r}")
    return params


def _json_rows(value, key: str) -> list:
    """A JSON matrix: a list of arrays, never of strings read as characters."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise CliError(f'"{key}" must be a list of JSON arrays')
    return value


def _parse_module(text: str):
    stripped = text.strip()
    if not stripped.startswith("{"):
        return CyclicModule(stripped)
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad module JSON: {exc}")
    kind = data.get("type")
    if kind == "cyclic":
        if "p" not in data:
            raise CliError('cyclic module JSON needs a "p" field')
        return CyclicModule(str(data["p"]))
    if kind == "presented":
        delta = data.get("delta")
        if not isinstance(delta, list) or not delta:
            raise CliError('presented module JSON needs a "delta" matrix')
        rows = tuple(tuple(str(e) for e in row) for row in _json_rows(delta, "delta"))
        mod = PresentedModule(rows)
        # type, not ==: true == 1 and 2.0 == 2
        if "n" in data and (type(data["n"]) is not int or data["n"] != mod.n):
            raise CliError(f'"n" is {json.dumps(data["n"])} but delta is {mod.n}x{mod.n}')
        return mod
    raise CliError(f'module "type" must be "cyclic" or "presented", got {kind!r}')


def _parse_rep(text: str, params: dict[str, Fraction]) -> Representation:
    stripped = text.strip()
    if not stripped.startswith("{"):
        return representative(stripped, params or None)
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise CliError(f"bad representation JSON: {exc}")
    try:
        mats = [
            QMatrix([[Fraction(str(x)) for x in row] for row in _json_rows(data[key], key)])
            for key in ("e1", "s12", "s21")
        ]
    except KeyError as exc:
        raise CliError(f"representation JSON is missing {exc.args[0]!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad matrix entry: {exc}")
    rep = Representation(*mats)
    if "n" in data and (type(data["n"]) is not int or data["n"] != rep.n):
        raise CliError(f'"n" is {json.dumps(data["n"])} but the matrices are {rep.n}x{rep.n}')
    return rep


# -- serialization ----------------------------------------------------------


def _qmat_json(m: QMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.to_rows()]


def _wmat_json(rows) -> list[list[str]]:
    return [[print_weyl(e) for e in row] for row in rows]


def _module_json(mod) -> dict:
    if isinstance(mod, CyclicModule):
        return {"type": "cyclic", "p": print_weyl(mod.p)}
    return {"type": "presented", "n": mod.n, "delta": _wmat_json(mod.delta)}


def _witness_json(w: IsoWitness) -> dict:
    return {
        "source": _module_json(w.source),
        "target": _module_json(w.target),
        "r": _wmat_json(w.r),
        "s": _wmat_json(w.s),
        "u": _wmat_json(w.u),
        "v": _wmat_json(w.v),
        "c_a": _wmat_json(w.c_a),
        "c_b": _wmat_json(w.c_b),
        "max_degree": w.max_degree,
    }


def _report_json(report: SpecializationReport) -> dict:
    out = {
        "presentation": _module_json(report.presentation),
        "identified": report.identified,
        "target_kind": report.target_kind,
        "target": None,
        "alias": report.alias,
        "shift": report.shift,
        "witness": None,
        "blocks": None,
        "max_degree": report.max_degree,
        "message": report.message,
    }
    if report.witness is not None:
        out["witness"] = _witness_json(report.witness)
    if report.target_kind == "cyclic":
        out["target"] = _module_json(report.target)
    elif report.target_kind == "direct_sum":
        out["blocks"] = [_report_json(sub) for sub in report.target]
    if report.point is not None:
        out["point"] = {
            "alpha": str(report.point.alpha),
            "beta": str(report.point.beta),
        }
    return out


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(payload) + "\n"
    return "".join(line + "\n" for line in _text_lines(payload, 0))


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, pad: str = "\n") -> str:
    """The bytes of json.dumps(value, sort_keys=True, indent=2) for the
    types a payload holds: str-keyed dicts, lists, str, int, bool and None.
    That call always runs the pure-Python encoder, since the C one takes
    no indent, and it yields each piece through a chain of generators;
    this writes each container's string in one join."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"payload keys must be str, not {type(key).__name__}")
            items.append(f"{inner}{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}")
        return "{" + ",".join(items) + pad + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + ",".join([inner + _json_text(x, inner) for x in value]) + pad + "]"
    raise TypeError(f"{type(value).__name__} is not a payload type")


def _text_lines(value, depth: int) -> list[str]:
    pad = "  " * depth
    lines: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(item, depth + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            lines.append(pad + ", ".join(_scalar_text(x) for x in value))
        else:
            for item in value:
                if isinstance(item, list) and all(
                    not isinstance(x, (dict, list)) for x in item
                ):
                    lines.append(
                        pad + "[" + ", ".join(_scalar_text(x) for x in item) + "]"
                    )
                else:
                    lines.append(pad + "-")
                    lines.extend(_text_lines(item, depth + 1))
    else:
        lines.append(pad + _scalar_text(value))
    return lines


def _scalar_text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)


# -- subcommands ------------------------------------------------------------


def _cmd_ext(ns) -> tuple[dict, bool]:
    table = ext_table(max_degree=ns.max_degree)
    payload = {
        "ext1": [list(row) for row in table.dims1],
        "ext2": [list(row) for row in table.dims2],
        "stabilized_at": table.stabilized_at,
    }
    return payload, table.stable


def _cmd_hull(ns) -> tuple[dict, bool]:
    table = ext_table(max_degree=ns.max_degree)
    hull = hull_unobstructed(table)
    payload = {
        "points": list(hull.points),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in hull.arrows
        ],
        "relations": [r.display for r in hull.relations],
        "trunc_dims": {str(m): sum(map(sum, comp))
                       for m, comp in enumerate(hull._component_sums(8)) if m},
    }
    return payload, table.stable


def _cmd_classify(ns) -> tuple[dict, bool]:
    result = classify(ns.n)
    families = []
    for fam in result.families:
        rep = fam.representative
        sample = None
        if fam.parameter is not None:
            if fam.parameter in ns.params:
                rep = representative(fam.label, ns.params)
            sample = str(rep.params[fam.parameter])
        families.append({
            "label": fam.label,
            "dims": list(fam.dims),
            "parameter": fam.parameter,
            "sample": sample,
            "matrices": {
                "e1": _qmat_json(rep.e1),
                "s12": _qmat_json(rep.s12),
                "s21": _qmat_json(rep.s21),
            },
            "simple": fam.simple,
            "indecomposable": fam.indecomposable,
            "decomposition": (
                None if fam.decomposition is None else list(fam.decomposition)
            ),
        })
    payload = {
        "n": result.n,
        "exact": result.exact,
        "discrete": len(result.discrete),
        "parametric": len(result.parametric),
        "families": families,
        "notes": list(result.notes),
    }
    return payload, True


def _cmd_simple(ns) -> tuple[dict, bool]:
    rep = _parse_rep(ns.rep, ns.params)
    simple = is_simple(rep)
    submodule = None
    searched = True
    try:
        found = find_proper_submodule(rep)
    except UnsupportedDimensionError:
        searched = False
        found = None
    if found is not None:
        submodule = [[str(x) for x in vec] for vec in found]
    payload = {
        "n": rep.n,
        "simple": simple,
        "proper_submodule": submodule,
        "submodule_search": searched,
    }
    return payload, True


def _cmd_specialize(ns) -> tuple[dict, bool]:
    rep = _parse_rep(ns.rep, ns.params)
    report = identify_specialization(rep, ns.max_degree)
    return _report_json(report), report.identified


def _cmd_commutative(ns) -> tuple[dict, bool]:
    report = commutative_specialize((ns.alpha, ns.beta), ns.max_degree)
    return _report_json(report), report.identified


def _cmd_hom(ns) -> tuple[dict, bool]:
    source = _parse_module(ns.p)
    target = _parse_module(ns.q)
    if not isinstance(source, CyclicModule) or not isinstance(target, CyclicModule):
        raise CliError("hom expects cyclic modules")
    basis = hom_search(source, target, ns.max_degree)
    stab = basis.stabilized_at()
    payload = {
        "dim": basis.dim,
        "dims": list(basis.dims),
        "stabilized_at": stab,
        "basis": [print_weyl(b) for b in basis.basis],
    }
    return payload, stab is not None


def _cmd_iso(ns) -> tuple[dict, bool]:
    source = _parse_module(ns.p)
    target = _parse_module(ns.q)
    witness = iso_witness(source, target, ns.max_degree)
    if witness is None:
        payload = {
            "found": False,
            "max_degree": ns.max_degree,
            "message": f"no witness up to degree {ns.max_degree}",
        }
        return payload, False
    payload = {"found": True}
    payload.update(_witness_json(witness))
    return payload, True


def _add_common(sub) -> None:
    sub.add_argument(
        "--max-degree", type=_degree_arg, default=DEFAULT_MAX_DEGREE,
        help=f"degree cap for truncated searches (0..{HARD_CAP}, default "
             f"{DEFAULT_MAX_DEGREE})",
    )
    sub.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="parameter value for a family label, repeatable",
    )
    sub.add_argument(
        "--format", choices=("json", "text"), default="json",
        help="output format (default json)",
    )


_REP = ("rep", None, "family label or inline JSON")

# name, help, positional arguments as (name, type, help), handler
_COMMANDS = (
    ("ext", "extension dimension table", (), _cmd_ext),
    ("hull", "quiver, relations, and truncations", (), _cmd_hull),
    ("classify", "classify n-dimensional modules",
     (("n", _dimension_arg, "dimension to classify"),), _cmd_classify),
    ("simple", "test a representation for simplicity", (_REP,), _cmd_simple),
    ("specialize", "specialize and identify", (_REP,), _cmd_specialize),
    ("commutative", "specialize a commutative point",
     (("alpha", _fraction_arg, None), ("beta", _fraction_arg, None)), _cmd_commutative),
    ("hom", "hom space between two cyclic modules",
     (("p", None, "element string or cyclic module JSON"),
      ("q", None, "element string or cyclic module JSON")), _cmd_hom),
    ("iso", "search for an isomorphism witness",
     (("p", None, "element string or module JSON"),
      ("q", None, "element string or module JSON")), _cmd_iso),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="weyldeform",
        description="Exact deformation computations over the first Weyl algebra.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, positionals, handler in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for arg, kind, arg_help in positionals:
            sub.add_argument(arg, type=kind, help=arg_help)
        sub.set_defaults(handler=handler)
        _add_common(sub)
    return parser


# built once: every parse starts a fresh namespace, and the append action
# copies the --param default before it appends
_PARSER = _build_parser()


@_memo
def _answer(argv: tuple[str, ...]) -> tuple[str, int]:
    """The text main prints for argv, and its exit code.  An exception
    that escapes (argparse's SystemExit on --help) is not cached."""
    fmt = "json"
    try:
        ns = _PARSER.parse_args(argv)
        fmt = ns.format
        ns.params = _collect_params(ns.param)
        payload, ok = ns.handler(ns)
    except WeylSyntaxError as exc:
        payload, code = {"error": exc.message, "position": exc.pos}, 1
    except RelationViolation as exc:
        payload, code = {
            "error": str(exc),
            "violations": [name for name, _ in exc.violations],
        }, 1
    except (CliError, ValueError, KeyError, TypeError) as exc:
        # every one is raised with a single message; KeyError's str() would quote it
        payload, code = {"error": str(exc.args[0] if exc.args else exc)}, 1
    else:
        code = 0 if ok else 2
    return _render(payload, fmt), code


def main(argv=None) -> int:
    text, code = _answer(tuple(sys.argv[1:] if argv is None else argv))
    # looked up at call time, so redirect_stdout and capsys see the text
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
