"""Command-line front end: reproducible experiments with JSON/CSV reports.

Exit codes (EXIT_CODES): 0 success, 2 validation failure, 3 unsupported
system, 4 I/O error, 5 could not certify.  All reports are emitted with
sorted keys so identical inputs produce byte-identical output.

Each subcommand declares its positionals and flags once, in _COMMANDS; each
flag has a reader and a default.  _read_argv walks argv against that entry
(`--flag value` or `--flag=value`, a unique prefix for a flag's name) and
reads every flag value before the command loads a file; the help and the
usage line are made from the table.
"""

from __future__ import annotations

import json
import math
import re
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
    """The JSON value of a file; OSError also for one not UTF-8 or nested too deeply to decode.

    The text is read as open(path, encoding="utf-8") reads it: strict UTF-8,
    a BOM kept (json refuses it) and line ends made "\n".
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8: {exc}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise OSError(f"{path} nests too deeply to decode") from None


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


def _parse_qgrid(spec: str, flag: str) -> list[Fraction]:
    parts = spec.split(":")
    try:
        a, b, steps = parse_frac(parts[0]), parse_frac(parts[1]), parse_int(parts[2])
    except (ValueError, ZeroDivisionError, IndexError):
        raise ValidationError(f"--{flag} must be a:b:steps, got {spec!r}") from None
    if len(parts) != 3 or not 1 <= steps <= QGRID_STEPS_CAP or a < 2 or b < a:
        raise ValidationError(
            f"--{flag} needs 2 <= a <= b and 1 <= steps <= {QGRID_STEPS_CAP}, got {spec!r}"
        )
    if b > QGRID_MAX:
        raise ValidationError(f"--{flag} bounds must be at most {QGRID_MAX:g}, got {spec!r}")
    if steps == 1:
        return [a]
    ratio = (float(b) / float(a)) ** (1.0 / (steps - 1))
    out = []
    for k in range(steps):
        q = Fraction(round(float(a) * ratio ** k))
        if not out or q > out[-1]:
            out.append(q)
    return out


def _text(text: str, flag: str) -> str:
    return text


def _number(integer: bool, ok=None, need: str = ""):
    """The reader of an integer or rational flag whose value must pass ok (need says how)."""

    def read(text: str, flag: str):
        try:
            x = parse_int(text) if integer else parse_frac(text)
        except (ValueError, TypeError, ZeroDivisionError):
            kind = "an integer" if integer else "a rational"
            raise ValidationError(f"--{flag} must be {kind}, got {text!r}") from None
        if ok is not None and not ok(x):
            raise ValidationError(f"--{flag} must be {need}, got {text}")
        return x

    return read


_INTEGER = _number(True)
_AT_LEAST_ONE = _number(False, lambda x: x >= 1, ">= 1")
_OVER_ONE = _number(False, lambda x: x > 1, "> 1")
_IN_UNIT_INTERVAL = _number(False, lambda x: 0 < x <= 1, "in (0, 1]")


def _cmd_validate(args) -> int:
    rep = validate(_load_pair(args["pair"]))
    _emit(
        {
            "core_ok": rep.core_ok,
            "normalized_ok": rep.normalized_ok,
            "r": rep.r,
            "messages": rep.messages,
        },
        args["out"],
    )
    return 0 if rep.core_ok else 2


def _cmd_invariants(args) -> int:
    pair = _load_pair(args["pair"])
    delta_l, h_l = pair_invariants(pair)
    _emit(
        {
            "delta_L": _factored_json(delta_l, args["precision"]),
            "H_L": _factored_json(h_l, args["precision"]),
            "r": validate(pair).r,
            "theta": frac_str(theta_of(pair)),
            "alpha": frac_str(alpha_of(pair)),
        },
        args["out"],
    )
    return 0


def _cmd_weight(args) -> int:
    pair = _load_pair(args["pair"])
    sub = _subspace_from_json(_load_json(args["subspace"]), pair.n)
    _emit({"weight": frac_str(weight(pair, sub)), "dim": sub.dim}, args["out"])
    return 0


def _cmd_filtration(args) -> int:
    chain = filtration(_load_pair(args["pair"]))
    entries = [
        {
            "basis": [[frac_str(a) for a in row] for row in sub.rows],
            "dim": sub.dim,
            "weight": frac_str(chain.weights[l]),
            "slope": frac_str(chain.slopes[l - 1]) if l >= 1 else None,
        }
        for l, sub in enumerate(chain.subspaces)
    ]
    _emit({"chain": entries}, args["out"])
    return 0


def _cmd_exceptional(args) -> int:
    pair = _load_pair(args["pair"])
    t = exceptional_subspace(pair)
    out = {"weight": frac_str(weight(pair, t)), "slope_vs_full": frac_str(slope(pair, Subspace.full(pair.n), t))}
    _emit({**_subspace_json(t), **out}, args["out"])
    return 0


def _cmd_special_t(args) -> int:
    partition = special_case_T(_load_pair(args["pair"]))
    _emit({"partition": [list(block) for block in partition]}, args["out"])
    return 0


def _box(args, pair: TwistedPair) -> int:
    """--box, or else the default box policy's box at --q."""
    return args["box"] if args["box"] is not None else default_box_policy(pair)(args["q"])


def _cmd_infima(args) -> int:
    pair = _load_pair(args["pair"])
    est = successive_infima(pair, args["q"], _box(args, pair))
    _emit(
        {
            "q": frac_str(est.q),
            "box": est.box,
            "lambdas": [_factored_json(l, args["precision"]) for l in est.lambdas],
            "achievers": [list(a) for a in est.achievers],
            "spans": [_subspace_json(s) for s in est.spans],
        },
        args["out"],
    )
    return 0


def _cmd_slopes(args) -> int:
    pair = _load_pair(args["pair"])
    box = args["box"]
    rep = slope_profile(pair, args["qgrid"], None if box is None else lambda q: box)
    if args["out"] and args["out"].endswith(".csv"):
        _emit(slope_csv(rep), args["out"], as_csv=True)
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
        args["out"],
    )
    return 0


def _cmd_minkowski(args) -> int:
    pair = _load_pair(args["pair"])
    rep = minkowski_check(pair, args["q"], _box(args, pair))
    _emit(
        {
            "q": frac_str(rep.q),
            "box": rep.box,
            "product": _factored_json(rep.product, args["precision"]),
            "lower": _factored_json(rep.lower, args["precision"]),
            "upper": _factored_json(rep.upper, args["precision"]),
            "lower_ok": rep.lower_ok,
            "upper_ok": rep.upper_ok,
        },
        args["out"],
    )
    return 0


def _cmd_gap(args) -> int:
    pair = _load_pair(args["pair"])
    delta, a = args["delta"], args["a"]
    if FactoredReal.from_rational(a) ** delta < FactoredReal.from_rational(pair.n):
        raise ValidationError(f"--a must be >= n^(1/delta) for n = {pair.n}, got {frac_str(a)}")
    rep = gap_experiment(pair, delta, a, args["box"])
    _emit(
        {
            "a": frac_str(rep.a),
            "delta": frac_str(rep.delta),
            "box": rep.box,
            "threshold": _factored_json(rep.threshold, args["precision"]),
            "solutions": [list(x) for x in rep.solutions],
            "span": _subspace_json(rep.span),
            "proper": rep.proper,
        },
        args["out"],
    )
    return 0


def _cmd_scan(args) -> int:
    rep = scan_system(_load_system(args["system"]), args["hmax"], args["box"])
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
        args["out"],
    )
    return 0


def _cmd_bounds(args) -> int:
    # the theorem flags stay strings for _read_params, under their parameter names
    params = dict(args, d=args["dd"], H_L=args["hl"], H_star=args["hstar"])
    rep = bound_constants(args["thm"], params, precision=args["precision"])
    _emit(rep.to_json(), args["out"])
    return 0


def _cmd_reduce(args) -> int:
    pair, delta, qexp = reduce_system(_load_system(args["system"]))
    _emit(
        {
            "pair": pair_to_json(pair),
            "delta": frac_str(delta),
            "q_exponent": frac_str(qexp),
        },
        args["out"],
    )
    return 0


def _cmd_cover(args) -> int:
    omega, delta, q1 = args["omega"], args["delta"], args["q1"]
    if q1 is None:
        out = {"s": interval_cover(omega, delta)}
    else:  # the s + 1 endpoints of the cover
        ends = cover_list(q1, omega, delta)
        out = {"s": len(ends) - 1, "endpoints_log10": [f"{e:.12f}" for e in ends]}
    _emit(out, args["out"])
    return 0


# -- the flag tables and their reader ---------------------------------------------

_REQUIRED = object()  # the default of a flag that must be given
_OUT = {"out": (_text, None)}
# --precision where a report prints certified digits
_PRECISION = {**_OUT, "precision": (_number(True, lambda p: 1 <= p <= MAX_PRECISION, f"in [1, {MAX_PRECISION}]"), 12)}

# Each subcommand: its function, its positionals and its flags, flag: (reader, default).
# A reader takes the flag's string and name; a default is not read.
_COMMANDS = {
    "validate": (_cmd_validate, ("pair",), _OUT),
    "invariants": (_cmd_invariants, ("pair",), _PRECISION),
    "weight": (_cmd_weight, ("pair", "subspace"), _OUT),
    "filtration": (_cmd_filtration, ("pair",), _OUT),
    "exceptional": (_cmd_exceptional, ("pair",), _OUT),
    "special-t": (_cmd_special_t, ("pair",), _OUT),
    "infima": (_cmd_infima, ("pair",), {"q": (_AT_LEAST_ONE, _REQUIRED), "box": (_INTEGER, None), **_PRECISION}),
    "slopes": (_cmd_slopes, ("pair",), {"qgrid": (_parse_qgrid, _REQUIRED), "box": (_INTEGER, None), **_OUT}),
    "minkowski": (_cmd_minkowski, ("pair",), {"q": (_AT_LEAST_ONE, _REQUIRED), "box": (_INTEGER, None), **_PRECISION}),
    "gap": (_cmd_gap, ("pair",), {"delta": (_IN_UNIT_INTERVAL, _REQUIRED), "a": (_AT_LEAST_ONE, _REQUIRED),
                                  "box": (_INTEGER, 10), **_PRECISION}),
    "scan": (_cmd_scan, ("system",), {"hmax": (_AT_LEAST_ONE, _REQUIRED), "box": (_INTEGER, 10), **_OUT}),
    # the theorem flags stay strings: bounds_reduction._read_params reads and range-checks them
    "bounds": (_cmd_bounds, (), {"thm": (_text, _REQUIRED), **dict.fromkeys(("n", "delta", "eps", "R"), (_text, None)),
                                 **dict.fromkeys(("D", "dd", "s", "hl", "hstar"), (_text, "1")), **_PRECISION}),
    "reduce": (_cmd_reduce, ("system",), _OUT),
    "cover": (_cmd_cover, (), {"omega": (_OVER_ONE, _REQUIRED), "delta": (_IN_UNIT_INTERVAL, _REQUIRED),
                               "q1": (_OVER_ONE, None), **_OUT}),
}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_FLAG_FORMS = """pair, system and subspace are paths of JSON files.  A flag is --flag VALUE or
--flag=VALUE, and a unique prefix of a flag's name stands for it (--prec 5).
"""


def _usage(command) -> str:
    """The usage line of a subcommand, or of heightlab for None."""
    if command is None:
        return f"usage: heightlab [-h] {{{','.join(_COMMANDS)}}} ..."
    _, positionals, flags = _COMMANDS[command]
    words = [f"--{f} {f.upper()}" if d is _REQUIRED else f"[--{f} {f.upper()}]" for f, (_, d) in flags.items()]
    return " ".join(["usage: heightlab", command, "[-h]", *positionals, *words])


def _leave(command, error: str | None = None):
    """Exit 0 after the help, or 2 after the usage line and the error."""
    if error is not None:
        prog = "heightlab" if command is None else f"heightlab {command}"
        print(_usage(command), f"{prog}: error: {error}", sep="\n", file=sys.stderr)
        raise SystemExit(2)
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact twisted heights, filtrations, infima search and bound tables.", "", "commands:"]
        lines += ["  " + _usage(name).removeprefix("usage: ") for name in _COMMANDS] + [""]
    print(*lines, _FLAG_FORMS, EXIT_CODES, sep="\n")
    raise SystemExit(0)


def _flag(command, names, arg: str) -> tuple[str, str | None] | None:
    """(the flag of names that arg is or is a unique prefix of, its value after "=" or
    None); None for a value.  As argparse reads them, "-", and a negative number or a
    string with a space that names no flag, are values; "--" ends the flags."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in ("-h", "--"):
        return "help" if arg == "-h" else arg, None
    name, eq, value = arg[2:].partition("=")
    hits = [] if arg[1] != "-" else [name] if name in names else [f for f in names if f.startswith(name)]
    if not hits:
        if " " in arg or _NEGATIVE_NUMBER.match(arg):
            return None
        _leave(command, f"unrecognized arguments: {arg}")
    if len(hits) > 1:
        _leave(command, f"ambiguous option: --{name} could match {', '.join('--' + f for f in hits)}")
    return hits[0], value if eq else None


def _read_argv(argv: list) -> tuple:
    """(the subcommand's function, its values by positional and flag name) of argv;
    SystemExit as _leave exits, or ValidationError for a value its reader refuses."""
    if not argv:
        _leave(None, "the following arguments are required: command")
    hit = _flag(None, ("help",), argv[0])
    if hit and hit[0] == "help":
        _leave(None)
    command = argv[0]
    if command not in _COMMANDS:
        _leave(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(_COMMANDS)})")
    fn, positionals, flags = _COMMANDS[command]
    names = (*flags, "help")
    given, paths = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        flag, value = _flag(command, names, arg) or (None, arg)
        if flag is None:
            paths.append(value)
        elif flag == "--":
            paths.extend(rest)
        elif flag == "help":
            _leave(command)
        else:
            if value is None:
                value = next(rest, None)
                if value is None or _flag(command, names, value):
                    _leave(command, f"argument --{flag}: expected one argument")
            given[flag] = value
    missing = [f"--{f}" for f, (_, d) in flags.items() if d is _REQUIRED and f not in given]
    missing[:0] = positionals[len(paths):]
    if missing:
        _leave(command, f"the following arguments are required: {', '.join(missing)}")
    if len(paths) > len(positionals):
        _leave(command, f"unrecognized arguments: {' '.join(paths[len(positionals):])}")
    args = dict(zip(positionals, paths))
    for flag, (read, default) in flags.items():  # the last value of a repeated flag
        args[flag] = read(given[flag], flag) if flag in given else default
    return fn, args


def cmd_dispatch(argv) -> int:
    """Read argv against its subcommand's flag table, run the subcommand, write reports."""
    try:
        fn, args = _read_argv(list(argv))
        return fn(args)
    except ValidationError as exc:
        return _fail(2, f"validation failure: {exc}")
    except UnsupportedSystemError as exc:
        return _fail(3, f"unsupported system: {exc}")
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(4, f"I/O error: {exc}")
    except CertificationError as exc:
        return _fail(5, f"could not certify: {exc}")


def main(argv=None) -> int:
    return cmd_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
