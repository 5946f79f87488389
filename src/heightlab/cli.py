"""Command-line front end: reproducible experiments with JSON/CSV reports.

Exit codes (EXIT_CODES): 0 success, 2 validation failure, 3 unsupported
system, 4 I/O error, 5 could not certify.  All reports are emitted with
sorted keys so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .bounds_reduction import (
    CertificationError,
    bound_constants,
    cover_list,
    interval_cover,
    reduce_system,
)
from .exact_reals import FactoredReal, g_str
from .exterior_algebra import Subspace
from .filtration import (
    UnsupportedSystemError,
    exceptional_subspace,
    filtration,
    slope,
    special_case_T,
    weight,
)
from .infima_lab import (
    SystemInstance,
    default_box_policy,
    gap_experiment,
    minkowski_check,
    scan_system,
    slope_csv,
    slope_profile,
    successive_infima,
)
from .places_heights import parse_int
from .twisted_system import (
    TwistedPair,
    ValidationError,
    frac_str,
    pair_from_json,
    pair_invariants,
    pair_to_json,
    parse_frac,
    parse_rationals,
    places_from_json,
    theta_of,
    alpha_of,
    validate,
)

__all__ = ["main", "cmd_dispatch"]

# Significant digits a report may ask for with --precision.
MAX_PRECISION = 100
# Most points a --qgrid a:b:steps may ask for; the grid is built point by point.
QGRID_STEPS_CAP = 100
# Largest --qgrid bound: the grid is spaced in floats, with headroom for their rounding.
QGRID_MAX = sys.float_info.max / 2
# Largest log10 a report prints.
_FLOAT_MAX = int(sys.float_info.max)

EXIT_CODES = """exit codes:
  0  success
  2  validation failure (bad input, flag out of range, box over budget)
  3  unsupported system
  4  I/O error
  5  could not certify (a certified value needs more than MAX_DPS =
     20,000 digits, an interval endpoint has a binary exponent past
     POWER_BITS = 2^18, a value has too many digits to print, an
     integer cannot be factored into certified primes within the
     budget, or an exact comparison needs more than POWER_BITS = 2^18
     bits)"""


def _fail(code: int, msg: str) -> int:
    print(f"heightlab: {msg}", file=sys.stderr)
    return code


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj, out_path, as_csv: bool = False) -> None:
    if as_csv:
        text = obj
    else:
        parts = []
        _write_json(obj, "\n", parts.append)
        parts.append("\n")
        text = "".join(parts)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_json_str = json.encoder.encode_basestring_ascii


def _write_json(x, newline: str, put) -> None:
    """Write x piece by piece to put, byte for byte as json.dumps writes it
    with sorted keys and an indent of 2; newline is "\n" and the indent of
    x's line.

    The standard library writes indented JSON with its pure-Python encoder,
    which yields every piece through a generator; this writer takes the same
    steps in the same order: strings by encode_basestring_ascii, tuples as
    lists, dict items sorted by key and other values by _json_atom.
    """
    if isinstance(x, str):
        put(_json_str(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in x:
            put(sep)
            _write_json(v, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(x.items()):
            key = k if isinstance(k, str) else _json_atom(k)
            if key is None:
                raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
            put(sep + _json_str(key) + ": ")
            _write_json(v, inner, put)
            sep = "," + inner
        put(newline + "}")
    else:
        text = _json_atom(x)
        if text is None:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        put(text)


def _json_atom(x) -> str | None:
    """The text json writes for None, a bool, an int or a float (also as a
    dict key); None for any other value."""
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    return None


def _factored_json(x: FactoredReal, precision: int) -> dict:
    # the log10 is certified to below its last printed place (FactoredReal.log10)
    val, _ = x.log10(precision)
    num, den = val.numerator, val.denominator
    if abs(num) > _FLOAT_MAX * den:
        raise CertificationError("a log10 of the report has too many digits to print")
    return {"factored": x.to_json(), "log10": g_str(num, den, precision)}


def _subspace_json(s: Subspace) -> dict:
    return {
        "ambient": s.n,
        "dim": s.dim,
        "basis": [[frac_str(a) for a in row] for row in s.rows],
    }


def _rational(text, flag: str, ok=None, need: str = "") -> Fraction:
    """The value of a numeric flag; ValidationError unless it parses and passes `ok`."""
    try:
        x = parse_frac(text)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValidationError(f"--{flag} must be a rational, got {text!r}") from None
    if ok is not None and not ok(x):
        raise ValidationError(f"--{flag} must be {need}, got {text}")
    return x


def _at_least_one(x) -> bool:
    return x >= 1


def _in_unit_interval(x) -> bool:
    return 0 < x <= 1


def _subspace_from_json(data, n: int) -> Subspace:
    if not isinstance(data, dict) or "basis" not in data or not isinstance(data["basis"], list):
        raise ValidationError("a subspace file needs a 'basis' list")
    if data.get("ambient") not in (n, str(n)):
        raise ValidationError(f"subspace ambient dimension must be the pair's n = {n}")
    return Subspace(n, [parse_rationals(row, n, "a basis row") for row in data["basis"]])


def _load_pair(path: str) -> TwistedPair:
    return pair_from_json(_load_json(path))


def _load_system(path: str) -> SystemInstance:
    data = _load_json(path)
    n, places = places_from_json(data, n_min=2)
    if "epsilon" not in data:
        raise ValidationError("missing key 'epsilon'")
    try:
        epsilon = parse_frac(data["epsilon"])
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValidationError(f"epsilon must be a rational, got {data['epsilon']!r}") from None
    return SystemInstance(n, epsilon, places)


def _filtration_json(pair: TwistedPair) -> dict:
    chain = filtration(pair)
    entries = []
    for l, sub in enumerate(chain.subspaces):
        entries.append(
            {
                "basis": [[frac_str(a) for a in row] for row in sub.rows],
                "dim": sub.dim,
                "weight": frac_str(chain.weights[l]),
                "slope": frac_str(chain.slopes[l - 1]) if l >= 1 else None,
            }
        )
    return {"chain": entries}


def _infima_json(est, precision: int) -> dict:
    return {
        "q": frac_str(est.q),
        "box": est.box,
        "lambdas": [_factored_json(l, precision) for l in est.lambdas],
        "achievers": [list(a) for a in est.achievers],
        "spans": [_subspace_json(s) for s in est.spans],
    }


def _parse_qgrid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    try:
        a, b, steps = parse_frac(parts[0]), parse_frac(parts[1]), parse_int(parts[2])
    except (ValueError, ZeroDivisionError, IndexError):
        raise ValidationError(f"--qgrid must be a:b:steps, got {spec!r}") from None
    if len(parts) != 3 or not 1 <= steps <= QGRID_STEPS_CAP or a < 2 or b < a:
        raise ValidationError(
            f"--qgrid needs 2 <= a <= b and 1 <= steps <= {QGRID_STEPS_CAP}, got {spec!r}"
        )
    if b > QGRID_MAX:
        raise ValidationError(f"--qgrid bounds must be at most {QGRID_MAX:g}, got {spec!r}")
    if steps == 1:
        return [a]
    ratio = (float(b) / float(a)) ** (1.0 / (steps - 1))
    out = []
    for k in range(steps):
        q = Fraction(round(float(a) * ratio ** k))
        if not out or q > out[-1]:
            out.append(q)
    return out


def _integer(text, flag: str) -> int:
    """The value of an integer flag, as parse_int reads it; ValidationError otherwise."""
    try:
        return parse_int(text)
    except (ValueError, TypeError):
        raise ValidationError(f"--{flag} must be an integer, got {text!r}") from None


def cmd_dispatch(argv) -> int:
    """Parse arguments, run one subcommand, write reports."""
    args = _parse(argv)
    try:
        if "precision" in args:
            args.precision = _integer(args.precision, "precision")
            if not 1 <= args.precision <= MAX_PRECISION:
                raise ValidationError(f"--precision must be in [1, {MAX_PRECISION}], got {args.precision}")
        if getattr(args, "box", None) is not None:
            args.box = _integer(args.box, "box")
        return args.func(args)
    except ValidationError as exc:
        return _fail(2, f"validation failure: {exc}")
    except UnsupportedSystemError as exc:
        return _fail(3, f"unsupported system: {exc}")
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(4, f"I/O error: {exc}")
    except CertificationError as exc:
        return _fail(5, f"could not certify: {exc}")


def _parse(argv) -> argparse.Namespace:
    """parse_args of the top parser, in one pass when argv starts with a subcommand.

    That subcommand's own parser reads the rest, as the top parser would hand
    it over, and what it leaves goes to the top parser's error, as there.
    """
    parser, subcommands = _parsers()
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="heightlab",
        description="Exact twisted heights, filtrations, infima search and bound tables.",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_pair=False, needs_system=False, precision=False, **flags):
        p = sub.add_parser(name)
        if needs_pair:
            p.add_argument("pair", help="path to a pair JSON file")
        if needs_system:
            p.add_argument("system", help="path to a system JSON file")
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", **kw)
        p.add_argument("--out", default=None)
        if precision:  # the subcommands that print certified log10s or decimals
            p.add_argument("--precision", default=12)
        p.set_defaults(func=fn)
        return p

    add("validate", _cmd_validate, needs_pair=True)
    add("invariants", _cmd_invariants, needs_pair=True, precision=True)
    p = add("weight", _cmd_weight, needs_pair=True)
    p.add_argument("subspace", help="path to a subspace JSON file")
    add("filtration", _cmd_filtration, needs_pair=True)
    add("exceptional", _cmd_exceptional, needs_pair=True)
    add("special-t", _cmd_special_t, needs_pair=True)
    add(
        "infima",
        _cmd_infima,
        needs_pair=True,
        precision=True,
        q={"required": True},
        box={"default": None},
    )
    add(
        "slopes",
        _cmd_slopes,
        needs_pair=True,
        qgrid={"required": True},
        box={"default": None},
    )
    add(
        "minkowski",
        _cmd_minkowski,
        needs_pair=True,
        precision=True,
        q={"required": True},
        box={"default": None},
    )
    add(
        "gap",
        _cmd_gap,
        needs_pair=True,
        precision=True,
        delta={"required": True},
        a={"required": True},
        box={"default": 10},
    )
    add(
        "scan",
        _cmd_scan,
        needs_system=True,
        hmax={"required": True},
        box={"default": 10},
    )
    add(
        "bounds",
        _cmd_bounds,
        precision=True,
        thm={"required": True},
        n={},
        delta={},
        eps={},
        R={},
        D={"default": "1"},
        dd={"default": "1", "dest": "d"},
        s={"default": "1"},
        hl={"default": "1", "dest": "H_L"},
        hstar={"default": "1", "dest": "H_star"},
    )
    add("reduce", _cmd_reduce, needs_system=True)
    add("cover", _cmd_cover, omega={"required": True}, delta={"required": True}, q1={"default": None})
    return parser, sub.choices


def _cmd_validate(args) -> int:
    pair = _load_pair(args.pair)
    rep = validate(pair)
    _emit(
        {
            "core_ok": rep.core_ok,
            "normalized_ok": rep.normalized_ok,
            "r": rep.r,
            "messages": rep.messages,
        },
        args.out,
    )
    return 0 if rep.core_ok else 2


def _cmd_invariants(args) -> int:
    pair = _load_pair(args.pair)
    delta_l, h_l = pair_invariants(pair)
    _emit(
        {
            "delta_L": _factored_json(delta_l, args.precision),
            "H_L": _factored_json(h_l, args.precision),
            "r": validate(pair).r,
            "theta": frac_str(theta_of(pair)),
            "alpha": frac_str(alpha_of(pair)),
        },
        args.out,
    )
    return 0


def _cmd_weight(args) -> int:
    pair = _load_pair(args.pair)
    sub = _subspace_from_json(_load_json(args.subspace), pair.n)
    _emit({"weight": frac_str(weight(pair, sub)), "dim": sub.dim}, args.out)
    return 0


def _cmd_filtration(args) -> int:
    pair = _load_pair(args.pair)
    _emit(_filtration_json(pair), args.out)
    return 0


def _cmd_exceptional(args) -> int:
    pair = _load_pair(args.pair)
    t = exceptional_subspace(pair)
    out = _subspace_json(t)
    out["weight"] = frac_str(weight(pair, t))
    out["slope_vs_full"] = frac_str(slope(pair, Subspace.full(pair.n), t))
    _emit(out, args.out)
    return 0


def _cmd_special_t(args) -> int:
    pair = _load_pair(args.pair)
    partition = special_case_T(pair)
    _emit({"partition": [list(block) for block in partition]}, args.out)
    return 0


def _q_and_box(args, pair: TwistedPair) -> tuple[Fraction, int]:
    """--q, and --box or else the default box policy's box at that q."""
    q = _rational(args.q, "q", _at_least_one, ">= 1")
    return q, args.box if args.box is not None else default_box_policy(pair)(q)


def _cmd_infima(args) -> int:
    pair = _load_pair(args.pair)
    q, box = _q_and_box(args, pair)
    est = successive_infima(pair, q, box)
    _emit(_infima_json(est, args.precision), args.out)
    return 0


def _cmd_slopes(args) -> int:
    pair = _load_pair(args.pair)
    qs = _parse_qgrid(args.qgrid)
    policy = None
    if args.box is not None:
        policy = lambda q: args.box
    rep = slope_profile(pair, qs, policy)
    if args.out and args.out.endswith(".csv"):
        _emit(slope_csv(rep), args.out, as_csv=True)
        return 0
    _emit(
        {
            "qs": [frac_str(q) for q in rep.qs],
            "rows": [
                {"q": frac_str(q), "i": i, "log10_lambda": f"{ll:.12f}", "slope": f"{s:.12f}"}
                for q, i, ll, s in rep.rows
            ],
            "expected_slopes": [f"{e:.12f}" for e in rep.expected],
            "span_matches": {frac_str(q): ok for q, ok in rep.span_matches.items()},
        },
        args.out,
    )
    return 0


def _cmd_minkowski(args) -> int:
    pair = _load_pair(args.pair)
    q, box = _q_and_box(args, pair)
    rep = minkowski_check(pair, q, box)
    _emit(
        {
            "q": frac_str(rep.q),
            "box": rep.box,
            "product": _factored_json(rep.product, args.precision),
            "lower": _factored_json(rep.lower, args.precision),
            "upper": _factored_json(rep.upper, args.precision),
            "lower_ok": rep.lower_ok,
            "upper_ok": rep.upper_ok,
        },
        args.out,
    )
    return 0


def _cmd_gap(args) -> int:
    pair = _load_pair(args.pair)
    delta = _rational(args.delta, "delta", _in_unit_interval, "in (0, 1]")
    a = _rational(args.a, "a", _at_least_one, ">= 1")
    if FactoredReal.from_rational(a) ** delta < FactoredReal.from_rational(pair.n):
        raise ValidationError(f"--a must be >= n^(1/delta) for n = {pair.n}, got {args.a}")
    rep = gap_experiment(pair, delta, a, args.box)
    _emit(
        {
            "a": frac_str(rep.a),
            "delta": frac_str(rep.delta),
            "box": rep.box,
            "threshold": _factored_json(rep.threshold, args.precision),
            "solutions": [list(x) for x in rep.solutions],
            "span": _subspace_json(rep.span),
            "proper": rep.proper,
        },
        args.out,
    )
    return 0


def _cmd_scan(args) -> int:
    sys_inst = _load_system(args.system)
    rep = scan_system(sys_inst, _rational(args.hmax, "hmax", _at_least_one, ">= 1"), args.box)
    _emit(
        {
            "solutions": [
                {"x": list(s["x"]), "height": s["height"], "in_T_prime": s["in_T_prime"]}
                for s in rep.solutions
            ],
            "T_prime": _subspace_json(rep.t_prime),
            "reduced_delta": frac_str(rep.reduced_delta),
            "bin_ratio": frac_str(rep.bin_ratio),
            "histogram": {str(k): v for k, v in sorted(rep.histogram.items())},
        },
        args.out,
    )
    return 0


def _cmd_bounds(args) -> int:
    # the flags are stored under the theorem parameter names (--dd as d, --hl as H_L, ...)
    rep = bound_constants(args.thm, vars(args), precision=args.precision)
    _emit(rep.to_json(), args.out)
    return 0


def _cmd_reduce(args) -> int:
    sys_inst = _load_system(args.system)
    pair, delta, qexp = reduce_system(sys_inst)
    _emit(
        {
            "pair": pair_to_json(pair),
            "delta": frac_str(delta),
            "q_exponent": frac_str(qexp),
        },
        args.out,
    )
    return 0


def _cmd_cover(args) -> int:
    omega = _rational(args.omega, "omega", lambda x: x > 1, "> 1")
    delta = _rational(args.delta, "delta", _in_unit_interval, "in (0, 1]")
    s = interval_cover(omega, delta)
    out = {"s": s}
    if args.q1 is not None:
        q1 = _rational(args.q1, "q1", lambda x: x > 1, "> 1")
        out["endpoints_log10"] = [f"{e:.12f}" for e in cover_list(q1, omega, delta)]
    _emit(out, args.out)
    return 0


def main(argv=None) -> int:
    return cmd_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
