"""Command-line interface.

One parser serves every `main` call in a process; it is built on first use,
never at import.  `main` reads the pair alpha beta once, so a bad pair exits
2 before any handler runs.  It then calls the subcommand's handler,
`cmd_<name>(args, pair)`, looked up in this module at each call, so a
handler rebound after the parser was built is the one that runs.

Exit codes: 0 on success, 2 on invalid input (non-coprime pair, non-lean
set, bad flags), 3 on an internal invariant violation, 130 on Ctrl-C and
141 when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect
from functools import cache
from itertools import islice

from .counting import (
    _require_generator_count,
    count_fixed_points,
    count_lean_sets,
    count_lean_sets_total,
    orbit_count_table,
)
from .errors import InvariantError
from .leansets import _SUBTREE, LeanSet, _count_chains, _gap_chains, _write_in_parts
from .render import RenderSpec, render
from .semigroup import SemigroupPair, gaps, is_member
from .semimodules import Semimodule
from .syzygies import fundamental_couple, iterated_syzygy, syzygy_period
from .verify import brute_period_tally, run_checks

__all__ = ["main"]


def _lean_set(pair: SemigroupPair, text: str) -> LeanSet:
    """The lean set a --set of couple, syzygy, orbit or render names: its
    comma-separated ints, in any order, read by LeanSet.from_members."""
    try:
        values = [int(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise ValueError(f"could not parse {text!r} as a comma-separated integer set") from None
    return LeanSet.from_members(pair, values)


def _json(value) -> str:
    """The one compact JSON spelling of an output line."""
    return json.dumps(value, separators=(",", ":"))


def _emit(args, result, *lines: str) -> None:
    """Print result.to_json() as one compact line under --json, else the text lines."""
    print(_json(result.to_json()) if args.json else "\n".join(lines))


def _gap_count(pair: SemigroupPair, gens: int | None) -> int | None:
    """The gap count of the modules --gens names, None when it is absent."""
    if gens is None:
        return None
    _require_generator_count(pair, gens)
    return gens - 1


def cmd_gaps(args, pair) -> int:
    print(" ".join(str(g.value) for g in gaps(pair)))
    return 0


def cmd_member(args, pair) -> int:
    print("true" if is_member(pair, args.n) else "false")
    return 0


def cmd_enumerate(args, pair) -> int:
    gap_count = _gap_count(pair, args.gens)
    # Each line is its parent chain's line with one value spliced in, so no
    # line is sorted or joined.  A parent's value is (line, values, offsets):
    # the parent's whole output line, its gap values ascending, and the char
    # offset in that line at which a value belongs when k of the gap values
    # are smaller, offsets[k], for 0 <= k <= len(values).  A lean set's
    # members are 0 and its gap values ascending; the --json line is
    # Semimodule.to_json() as _json writes it, cut from the module (0,)
    # after its "[0".
    texts = [f",{x}" for x in range(pair.frobenius + 1)]
    prefix, suffix = "0", "\n"
    if args.json:
        head, _, tail = _json(Semimodule._trusted(pair, (0,)).to_json()).partition("[0]")
        prefix, suffix = head + "[0", "]" + tail + "\n"

    def line(parent, point):
        text, values, offsets = parent
        x = point.value
        at = offsets[bisect(values, x)]
        return text[:at] + texts[x] + text[at:]

    def grow(parent, point, out):
        _, values, offsets = parent
        x = point.value
        k = bisect(values, x)
        width = len(texts[x])
        return out, values[:k] + [x] + values[k:], offsets[: k + 1] + [o + width for o in offsets[k:]]

    root = (prefix + suffix, [], [len(prefix)])

    def text(part):  # one part's lines, 1,024 at a time, each subtree after a mark
        lines = _gap_chains(pair, gap_count, root, line, grow, part, _SUBTREE)
        if not gap_count and not part[0]:  # the empty chain comes first, as root itself
            yield next(lines)[0]
        while chunk := "".join(islice(lines, 1024)):
            yield chunk

    _write_in_parts(pair, gap_count, text, sys.stdout.write)
    return 0


def cmd_count(args, pair) -> int:
    gap_count = _gap_count(pair, args.gens)
    expected = count_lean_sets_total(pair) if gap_count is None else count_lean_sets(pair, gap_count)
    if args.brute:
        seen = _count_chains(pair, gap_count)
        if seen != expected:
            raise InvariantError(f"enumerated {seen} lean sets, formula says {expected}")
    print(expected)
    return 0


def cmd_couple(args, pair) -> int:
    couple = fundamental_couple(pair, _lean_set(pair, args.set))
    _emit(args, couple, "I: " + ",".join(map(str, couple.gens)), "J: " + ",".join(map(str, couple.syzygy_gens)))
    return 0


def cmd_syzygy(args, pair) -> int:
    result = iterated_syzygy(pair, Semimodule._trusted(pair, _lean_set(pair, args.set).members), args.iterate)
    if args.normalize:
        result = result.normalize()
    _emit(args, result, ",".join(str(g) for g in result.gens))
    return 0


def cmd_orbit(args, pair) -> int:
    report = syzygy_period(pair, Semimodule._trusted(pair, _lean_set(pair, args.set).members))
    steps = (f"cycle[{k}]: " + ",".join(map(str, step.gens)) for k, step in enumerate(report.cycle))
    _emit(args, report, f"period: {report.period}", *steps)
    return 0


def cmd_orbits(args, pair) -> int:
    table = orbit_count_table(pair, args.gens)
    if args.brute:
        tally = brute_period_tally(pair, args.gens)
        for row in table.rows:
            if tally.get(row.ell, 0) != row.exact:
                raise InvariantError(
                    f"iteration found {tally.get(row.ell, 0)} modules of period {row.ell}, "
                    f"formula says {row.exact}"
                )
    rows = (f"{row.ell} {row.periodic} {row.exact} {row.orbits}" for row in table.rows)
    _emit(args, table, "ell A exact orbits", *rows)
    return 0


def cmd_fixed_points(args, pair) -> int:
    if args.gens is not None:
        print(count_fixed_points(pair, args.gens))
    else:
        for n in range(1, pair.alpha + 1):
            print(f"{n} {count_fixed_points(pair, n)}")
    return 0


def cmd_render(args, pair) -> int:
    spec = RenderSpec(
        format=args.format,
        cell=args.cell,
        diagonal=not args.no_diagonal,
        markers=not args.no_markers,
        labels=args.labels,
    )
    print(render(pair, _lean_set(pair, args.set), spec))
    return 0


def cmd_verify(args, pair) -> int:
    results = run_checks(pair, deep=args.deep)
    for result in results:
        status = "skip" if result.skipped else "ok" if result.ok else "FAIL"
        print(f"{status:4s} {result.name}: {result.detail}")
    return 0 if all(result.skipped or result.ok for result in results) else 3


def _command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """Add the subcommand `name`: the pair alpha beta first, run by _handler(name)."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("alpha", type=int, help="smaller generator")
    parser.add_argument("beta", type=int, help="larger generator, coprime to alpha")
    return parser


def _handler(command: str):
    """The cmd_* function of a subcommand, as this module binds it now."""
    return globals()["cmd_" + command.replace("-", "_")]


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semipath",
        description="Semimodules over a two-generator numerical semigroup: "
        "gaps, lean sets, lattice paths, syzygies and orbit counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "gaps", "list the gaps of <alpha,beta>")

    p = _command(sub, "member", "test membership of n in <alpha,beta>")
    p.add_argument("n", type=int)

    p = _command(sub, "enumerate", "stream all lean sets, one per line")
    p.add_argument("--gens", type=int, default=None, help="only sets with this many generators")
    p.add_argument("--json", action="store_true", help="emit semimodule JSON objects")

    p = _command(sub, "count", "count lean sets by closed form")
    p.add_argument("--gens", type=int, default=None)
    p.add_argument("--brute", action="store_true", help="recount by enumeration and compare")

    p = _command(sub, "couple", "fundamental couple [I, J] of a lean set")
    p.add_argument("--set", required=True, help="comma-separated lean set containing 0")
    p.add_argument("--json", action="store_true")

    p = _command(sub, "syzygy", "generators of the (iterated) syzygy")
    p.add_argument("--set", required=True, help="comma-separated lean set containing 0")
    p.add_argument("--iterate", type=int, default=1, metavar="K", help="apply the syzygy K times")
    p.add_argument("--normalize", action="store_true", help="shift the result to contain 0")
    p.add_argument("--json", action="store_true")

    p = _command(sub, "orbit", "orbit of a semimodule under syzygy-and-normalize")
    p.add_argument("--set", required=True)
    p.add_argument("--json", action="store_true")

    p = _command(sub, "orbits", "orbit count table for n-generator semimodules")
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="confirm by iterating every module")
    p.add_argument("--json", action="store_true")

    p = _command(sub, "fixed-points", "count semimodules isomorphic to their syzygy")
    p.add_argument("--gens", type=int, default=None)

    p = _command(sub, "render", "draw the path of a lean set")
    p.add_argument("--set", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--cell", type=int, default=20, help="svg cell size in pixels")
    p.add_argument("--labels", action="store_true", help="svg: label lattice points with gap values")
    p.add_argument("--no-diagonal", action="store_true")
    p.add_argument("--no-markers", action="store_true")

    p = _command(sub, "verify", "run the brute-force cross-check suite")
    p.add_argument("--deep", action="store_true", help="exhaustive sweeps, including orbit tables")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _handler(args.command)(args, SemigroupPair(args.alpha, args.beta))
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Send what is still buffered
        # to devnull, so that the flush at exit does not fail again, and stop
        # quietly with the code of a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
