"""Command-line driver: search, verify, construct, decompose.

Exit codes: 0 success (search: exact value), 1 invalid input or failed
verification, 2 bound-only search result or no cyclic triangles, 3 an
input file that cannot be read, is not JSON, or does not describe a valid
object, or a search cache that cannot be read or appended to.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import re
import sys
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .budget import Budget
from .constructions import (
    balance_coloring,
    canonical_coloring,
    lex_product,
    product_boost_vectors,
)
from .core import VectorFamily, validate_comparable, validate_increasing
from .decomposition import (
    NoCyclicTriangles,
    SupportTooHigh,
    recursive_color_avoiding,
    three_color_path,
    trace_to_jsonl,
)
from .paths import (
    PathCertificate,
    monotone_lengths_ending,
    validate_path,
)
from .pods import Packing
from .search import EXACT, CacheError, run_search
from .tournament import ColoredTournament, OrderedColoring

TABLE_HEADER = "kind,q,r,size,value,status"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _reject_float(text: str):
    raise ValueError(f"non-integer number {text}")


def _find_bool(data):
    """A JSON ``true``/``false`` inside parsed data, else None."""
    stack = [data]
    while stack:
        x = stack.pop()
        if type(x) is bool:
            return x
        if type(x) is list:
            stack.extend(x)
        elif type(x) is dict:
            stack.extend(x.values())
    return None


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off.

    Decoding or encoding an instance makes one list per edge or row, and
    each allocation counts toward a collector pass that walks them all.
    Those lists form a tree, which reference counting frees, so the passes
    find nothing.  The previous state comes back on every exit; a collector
    that was already off stays off.  Only JSON decoding and encoding are
    wrapped: the search closures are reference cycles that hold their memo,
    so a whole command run this way could keep several memos alive at once.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_WHITESPACE = b" \t\n\r"  # JSON's whitespace; no form feed, no vertical tab
_DIGITS = b"0123456789"
# a plain instance's text up to its rows, "_" standing for any JSON whitespace;
# N and q have at most 19 digits, so int() takes them under any digit limit
_PLAIN_HEAD = re.compile(
    rb'_\{_"N"_:_(0|[1-9][0-9]{0,18})_,_"q"_:_(0|[1-9][0-9]{0,18})_,_"(edges|colors)"_:'.replace(
        b"_", rb"[ \t\n\r]*"
    )
)
_BRACKETS_BLANK = bytes.maketrans(b"[]", b"  ")


def _plain_instance(raw: bytes) -> dict | None:
    """Decode a plain instance file with its rows as one (m, 3) int64 array.

    A plain instance is ``{"N": int, "q": int, "edges"|"colors": [[int,
    int, int], ...]}`` with the keys in that order, JSON whitespace only
    and unsigned integers without leading zeros; its rows are read in a
    few C-speed passes, with no list per row.  Any other text, or one that
    fails a check, gives None, and the caller decodes it with ``json``:
    1. with its digits and whitespace deleted, the rows' text is exactly
       ``[[,,],...,[,,]]``, m rows;
    2. with the brackets blanked, ``np.fromstring`` reads exactly 3m
       values from it (numpy 2.0 warns and stops early on bad text, later
       versions raise);
    3. every value is at least 1 and below int64's maximum (where
       ``fromstring`` saturates), and the text's digit count is the sum of
       the values' decimal lengths, which rules out leading zeros.
    """
    head = _PLAIN_HEAD.match(raw)
    if head is None:
        return None
    rows = raw[head.end():].rstrip(_WHITESPACE)
    if not rows.endswith(b"}"):
        return None
    rows = rows[:-1]
    skeleton = rows.translate(None, _DIGITS + _WHITESPACE)
    m = (len(skeleton) - 1) // 5
    if skeleton != b"[" + (b"[,,]," * m)[:-1] + b"]":
        return None
    values = np.empty(0, np.int64)  # numpy reads the blanked "[]" as one 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            if m:
                values = np.fromstring(rows.translate(_BRACKETS_BLANK), np.int64, sep=",")
        except ValueError:
            return None
    if len(values) != 3 * m:
        return None
    top = int(values.max(initial=0))
    if values.min(initial=1) < 1 or top >= np.iinfo(np.int64).max:
        return None
    # a value has one digit, plus one for each power of ten it reaches
    width = len(values) + sum(np.count_nonzero(values >= 10**k) for k in range(1, len(str(top))))
    if width != len(rows) - len(rows.translate(None, _DIGITS)):
        return None
    return {"N": int(head[1]), "q": int(head[2]), head[3].decode(): values.reshape(m, 3)}


def _load(path: str, parse, what: str):
    """Read a JSON input file and build it with ``parse``.

    Every input file goes through here, so malformed content exits with
    code 3 like unreadable or unparsable JSON does.  Every number in an
    input file is an integer: a float literal (``1.5``, ``2e3``, ``NaN``,
    ``Infinity``) is rejected, not truncated.  No input format has a
    boolean field, and Python reads ``true`` as the integer 1, so a file
    holding ``true`` or ``false`` is rejected too; the parser's own checks
    run first and keep their messages.  The data is walked for booleans
    only when the raw text holds such a token.  A plain instance file is
    decoded by ``_plain_instance``, its rows as one array; any other file,
    and one whose rows fail its checks, by ``json``.  Nesting too deep for
    ``json`` is unparsable too.
    """
    with _collector_paused():
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CliError(f"cannot parse {path}: {exc}", 3)
        text = ""
        data = _plain_instance(raw)
        if data is None:
            try:
                # what Path.read_text returns: the locale's encoding, universal newlines
                text = io.TextIOWrapper(io.BytesIO(raw)).read()
                data = json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
            except (ValueError, RecursionError) as exc:
                raise CliError(f"cannot parse {path}: {exc}", 3)
        try:
            obj = parse(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise CliError(f"bad {what}: {exc}", 3)
        if "true" in text or "false" in text:
            flag = _find_bool(data)
            if flag is not None:
                raise CliError(f"bad {what}: boolean {json.dumps(flag)} is not an integer", 3)
        # free the decoded lists before the collector is back on: its first
        # pass would otherwise walk every one of them
        del raw, text, data
        return obj


def _parse_instance(data: dict):
    if "edges" in data:
        return ColoredTournament.from_json(data)
    if "colors" in data:
        return OrderedColoring.from_json(data)
    raise CliError("instance file is neither a tournament nor a coloring", 3)


def _indented(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value nested at ``indent``.

    The stdlib encoder drops to pure Python whenever it indents.  The shapes
    the written files are made of are filled at C speed instead: a list of
    exact ints is one join, and a list of equal-length rows of exact ints
    (edges, coloring entries, vectors) is one ``%`` fill of a per-row
    template.  ``bool`` is not an exact int, so it never prints as a digit.
    Everything else goes to ``json.dumps`` and is shifted to ``indent``; a
    JSON text has no raw newline inside its strings, so that shift only
    moves its line starts.
    """
    inner = indent + "  "
    sep = ",\n" + inner
    if type(obj) is dict and obj and set(map(type, obj)) == {str}:
        items = [f"{json.dumps(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if type(obj) is list and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            return "[\n" + inner + sep.join(map(int.__repr__, obj)) + "\n" + indent + "]"
        if kinds == {list} and len(set(map(len, obj))) == 1 and obj[0]:
            flat = tuple(chain.from_iterable(obj))
            if set(map(type, flat)) == {int}:
                cell = ",\n" + inner + "  "
                row = "[\n" + inner + "  " + cell.join(["%d"] * len(obj[0])) + "\n" + inner + "]"
                return ("[\n" + inner + sep.join([row] * len(obj)) + "\n" + indent + "]") % flat
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(_indented(payload, "") + "\n")


def _parse_budget(text: str | None) -> Budget | None:
    if text is None:
        return None
    seconds = text.endswith("s")
    try:
        limit = float(text[:-1]) if seconds else int(text)
    except ValueError:
        limit = -1
    if not limit >= 0:  # false for a NaN too, which no limit ever exceeds
        raise CliError(f"bad budget {text!r}: use a node count or '<seconds>s'", 1)
    return Budget(max_seconds=limit) if seconds else Budget(max_nodes=limit)


def cmd_search(args) -> int:
    try:
        record = run_search(
            args.kind,
            args.q,
            args.r,
            args.size,
            budget=_parse_budget(args.budget),
            cache=args.cache,
            use_cache=not args.no_cache,
        )
    except CacheError as exc:
        raise CliError(str(exc), 3)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    print(json.dumps(record.to_json()))
    if not args.json:
        print(TABLE_HEADER)
        print(
            f"{record.kind},{record.q},{record.r},{record.size},"
            f"{record.value},{record.status}"
        )
    return 0 if record.status == EXACT else 2


def cmd_verify(args) -> int:
    if args.kind == "path":
        if args.certificate is None:
            raise CliError("path verification needs a certificate file", 1)
        instance = _load(args.instance, _parse_instance, "instance")
        cert = _load(args.certificate, PathCertificate.from_json, "certificate")
        problem = validate_path(instance, cert)
    elif args.kind in ("sequence", "comparable"):
        fam = _load(args.instance, VectorFamily.from_json, "family")
        check = validate_increasing if args.kind == "sequence" else validate_comparable
        cert = check(fam)
        problem = None if cert.ok() else f"failure at pair {cert.pair}"
    else:  # packing
        packing = _load(args.instance, Packing.from_json, "packing")
        problem = None
        if not packing.valid:
            i, j = packing.certificate.pair
            problem = f"pods {i} and {j} intersect"
    if problem is None:
        print("ok" if not args.json else json.dumps({"ok": True}))
        return 0
    print(
        f"violation: {problem}"
        if not args.json
        else json.dumps({"ok": False, "violation": problem})
    )
    return 1


def cmd_construct(args) -> int:
    if args.what == "canonical":
        if len(args.args) != 2:
            raise CliError("usage: construct canonical <q> <m>", 1)
        try:
            q, m = (int(a) for a in args.args)
            out = canonical_coloring(q, m)
        except ValueError as exc:
            raise CliError(str(exc), 1)
        stats = {
            "N": out.n_vertices,
            "single_color_longest": {
                str(c): max(monotone_lengths_ending(out, {c})) for c in range(1, q + 1)
            },
        }
    elif args.what == "product":
        if len(args.args) != 2:
            raise CliError("usage: construct product <K1.json> <K2.json>", 1)
        k1 = _load(args.args[0], OrderedColoring.from_json, "coloring")
        k2 = _load(args.args[1], OrderedColoring.from_json, "coloring")
        try:
            out = lex_product(k1, k2)
        except ValueError as exc:
            raise CliError(str(exc), 1)
        stats = {"N": out.n_vertices}
    elif args.what == "balance":
        if len(args.args) != 1:
            raise CliError("usage: construct balance <K.json>", 1)
        k = _load(args.args[0], OrderedColoring.from_json, "coloring")
        out = balance_coloring(k)
        palette = set(range(1, out.q + 1))
        stats = {
            "N": out.n_vertices,
            "avoiding_lengths": {
                str(c): max(monotone_lengths_ending(out, palette - {c}))
                for c in range(1, out.q + 1)
            },
        }
    else:  # boost
        if len(args.args) != 2:
            raise CliError("usage: construct boost <A.json> <B.json>", 1)
        a = _load(args.args[0], VectorFamily.from_json, "family")
        b = _load(args.args[1], VectorFamily.from_json, "family")
        try:
            out = product_boost_vectors(a, b)
        except ValueError as exc:
            raise CliError(str(exc), 1)
        stats = {"size": len(out), "n": out.n}
    if args.output:
        with _collector_paused():
            _write_json(args.output, out.to_json())
    if args.json:
        print(json.dumps({"stats": stats, "written": args.output}))
    else:
        for key, value in stats.items():
            print(f"{key}: {value}")
        if args.output:
            print(f"wrote {args.output}")
    return 0


def cmd_decompose(args) -> int:
    t = _load(args.tournament, ColoredTournament.from_json, "tournament")
    if args.mode == "three-color":
        try:
            result = three_color_path(t, args.min_support)
        except NoCyclicTriangles:
            print("no cyclic triangles: the tournament is transitive-like")
            return 2
        except SupportTooHigh as exc:
            raise CliError(str(exc), 1)
        cert = result.certificate
        summary = {
            "length": cert.length,
            "pattern": list(result.pattern),
            "colors_used": sorted({t.color(a, b) for a, b in zip(cert.vertices, cert.vertices[1:])}),
        }
    else:
        trace: list | None = [] if args.trace else None
        color, cert = recursive_color_avoiding(t, seed=args.seed, trace=trace)
        summary = {"length": cert.length, "avoided_color": color}
        if args.trace:
            Path(args.trace).write_text(trace_to_jsonl(trace))
    _write_json(args.output, cert.to_json())
    if args.json:
        print(json.dumps({"summary": summary, "written": args.output}))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
        if args.output:
            print(f"wrote {args.output}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections exit 1, like any invalid input.

    argparse exits 2 on a usage error, the code of a bound-only search
    result.  Subcommand parsers are made with the parent's class, so they
    reject the same way.  ``--help`` still exits 0.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(message, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ramsey-pods",
        description=(
            "search, construct, verify, and decompose extremal vector families, "
            "edge-colored tournaments, and pod packings"
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized components")
    # the same flags are accepted after the subcommand without clobbering
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser(
        "search", parents=[common], help="run or recall an extremal-value oracle"
    )
    p_search.add_argument("kind", choices=["F", "G", "f", "g"])
    p_search.add_argument("q", type=int)
    p_search.add_argument("r", type=int)
    p_search.add_argument("size", type=int)
    p_search.add_argument("--budget", help="node count or wall clock like '2s'")
    p_search.add_argument("--cache", help="cache file (default $RAMSEY_PODS_CACHE or ./cache.jsonl)")
    p_search.add_argument("--no-cache", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", parents=[common], help="re-check a certificate or instance")
    p_verify.add_argument("kind", choices=["path", "sequence", "comparable", "packing"])
    p_verify.add_argument("instance")
    p_verify.add_argument("certificate", nargs="?")
    p_verify.set_defaults(func=cmd_verify)

    p_construct = sub.add_parser("construct", parents=[common], help="build a known extremal object")
    p_construct.add_argument("what", choices=["product", "canonical", "balance", "boost"])
    p_construct.add_argument("args", nargs="*")
    p_construct.add_argument("-o", "--output", help="write the instance here")
    p_construct.set_defaults(func=cmd_construct)

    p_decompose = sub.add_parser("decompose", parents=[common], help="find long color-avoiding paths")
    p_decompose.add_argument("mode", choices=["three-color", "recursive"])
    p_decompose.add_argument("tournament")
    p_decompose.add_argument(
        "--min-support",
        type=int,
        default=None,
        help="three-color: keep the cyclic triangles whose edges each lie in at least "
        "this many kept triangles of the chosen pattern (default: the largest "
        "threshold that keeps any)",
    )
    p_decompose.add_argument(
        "--trace",
        help="write one JSON object per recursion node visited; "
        "halves too small to beat the best path so far are skipped and write none",
    )
    p_decompose.add_argument("-o", "--output", help="write the certificate here")
    p_decompose.set_defaults(func=cmd_decompose)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
