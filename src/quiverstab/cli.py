"""Command-line front end, on the standard library's ``argparse``.

Exit codes: 0 on success, 1 on a ``quiver.DomainError`` (e.g. a point
violating the relations under --strict), 2 on any other ``ValueError``,
which marks input or parse errors.  ``_run`` alone maps an error to its
code; a command raises and never catches.  An error prints one
``Error: <message>`` line to stderr, last, with no traceback; input and
parse errors print the command's usage before it.  Reports are
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath
from typing import TYPE_CHECKING

from . import quiver as qv

if TYPE_CHECKING:
    from . import points as pts
    from . import stability as st


class UsageError(ValueError):
    """Bad input found by the command line itself: exit 2, after the usage."""


def _read_json(path, what: str, build):
    """``build`` applied to the JSON value in a file.  An unreadable file,
    invalid or too deeply nested JSON, and any value ``build`` rejects exit 2
    as ``bad {what}``."""
    try:
        return build(json.loads(FsPath(path).read_text()))
    except OSError as exc:  # str(exc) names the whole path
        raise UsageError(f"bad {what}: [Errno {exc.errno}] {exc.strerror}: {path!r:.40}")
    except (LookupError, RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"bad {what}: {exc}")


def _load_quiver(example: str | None, quiver_path: str | None):
    """Resolve the quiver (and catalog entry, if any) from the CLI options."""
    if (example is None) == (quiver_path is None):
        raise UsageError("give exactly one of --example or --quiver")
    if quiver_path is not None:
        return _read_json(quiver_path, "quiver file", qv.quiver_from_dict), None
    from . import catalog as cat

    entry = cat.get_entry(example)
    return entry.quiver, entry


def _parse_chi(q, chi: str | None, chi_file: str | None) -> st.Character:
    from . import stability as st

    if (chi is None) == (chi_file is None):
        raise UsageError("give exactly one of --chi or --chi-file")
    if chi_file is not None:
        character = _read_json(chi_file, "character file", lambda data: st.Character(data["chi"]))
    else:
        try:
            character = st.Character([qv.parse_int(x) for x in chi.split(",")])
        except ValueError as exc:
            raise UsageError(f"bad character {chi!r:.40}: {exc}")
    if character.n != q.n:
        raise UsageError(f"character length {character.n} != quiver nodes {q.n}")
    return character


def _parse_weights(n: int | None, m_entries, m_file: str | None) -> st.WeightMatrix:
    """The weight matrix of --m entries or of --m-file.  With ``n`` None the
    size is inferred: the file's row count, or the largest entry index."""
    from . import stability as st

    if m_entries and m_file:
        raise UsageError("give --m entries or --m-file, not both")
    if m_file is not None:
        m = _read_json(m_file, "weight file", lambda data: st.WeightMatrix(data["m"]))
        if n is not None and m.n != n:
            raise UsageError(f"weight matrix size {m.n} != {n} nodes")
        return m
    entries: dict[tuple[int, int], int] = {}
    for spec in m_entries:
        try:
            value, pair = spec.split("@")
            i, j = (qv.parse_int(x) for x in pair.split(","))
            entries[(i, j)] = entries.get((i, j), 0) + qv.parse_int(value)
        except ValueError:
            raise UsageError(f"bad weight entry {spec!r:.40}; expected like 1@1,4")
    if n is None:
        if not entries:
            raise UsageError("give --n when no weight entries are supplied")
        n = max(max(pair) for pair in entries)
    return st.WeightMatrix.from_entries(n, entries)


def _load_point(q, entry, point_path, taut, fiber) -> pts.RepresentationPoint:
    if (point_path is None) == (taut is None):
        raise UsageError("give exactly one of --point or --taut")
    if point_path is not None:
        if fiber is not None:
            raise UsageError("--fiber goes with --taut, not --point")
        from . import points as pts

        def point(data):
            values = data.get("values") if isinstance(data, dict) else None
            if not isinstance(values, dict):
                raise ValueError('expected {"values": {arrow id: value, ...}}')
            return pts.RepresentationPoint.for_quiver(q, values)

        return _read_json(point_path, "point file", point)
    if entry is None:
        raise UsageError("--taut needs a catalog --example with coordinate data")
    from . import catalog as cat

    return cat.tautological_point(entry, taut.split(":"), fiber)


def _emit(result: dict, text_lines: list[str], fmt: str):
    if fmt == "json":
        print(json.dumps(result, indent=2))
    else:
        for line in text_lines:
            print(line)


class _Parser(argparse.ArgumentParser):
    """An ``argparse`` parser that differs from the default in four ways.

    The token after an option that takes a value is that value, even when it
    starts with a dash (``--chi -1,0,1``, ``--fiber -1/2``); long options
    are never abbreviated; a parse error exits 2 with the usage and a last
    line ``Error: <message>``; and that message quotes at most 40
    characters of a bad choice."""

    def __init__(self, *args, **kwargs):
        self.value_options: set[str] = set()
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for token in tokens:
            if token == "--":
                joined += [token, *tokens]
            elif token in self.value_options:
                value = next(tokens, None)
                joined.append(token if value is None else f"{token}={value}")
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)

    def _check_value(self, action, value):
        # argparse's own message, quoting at most 40 characters of the value
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r:.40} (choose from {choices})"
            )

    def error(self, message):
        usage = self.format_usage().removeprefix("usage: ")
        self.exit(2, f"Usage: {usage}Try '{self.prog} --help' for help.\n\nError: {message}\n")


def _integer(text: str) -> int:
    """The type of the integer options: ``quiver.parse_int``'s grammar."""
    try:
        return qv.parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least_one(text: str) -> int:
    """The type of the options that count or size something."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r:.40} is not an integer >= 1")
    return value


_PARSER = _Parser(
    prog="quiverstab",
    description="Stability, certification, and invariants for quivers of line bundles.",
)
_COMMANDS = _PARSER.add_subparsers(
    dest="command", required=True, title="commands", metavar="COMMAND"
)


def _arg(*flags, **kwargs):
    return flags, kwargs


_QUIVER_ARGS = (_arg("--example"), _arg("--quiver", dest="quiver_path", metavar="FILE"))
_POINT_ARGS = (_arg("--point", dest="point_path", metavar="FILE"), _arg("--taut"), _arg("--fiber"))
_WEIGHT_ARGS = (
    _arg("--m", dest="m_entries", action="append", default=[], help="weight entries like 1@1,4"),
    _arg("--m-file"),
)
_FORMAT_ARG = _arg("--format", dest="fmt", choices=("text", "json"), default="text")


def _command(name: str, *arguments):
    """Register a function as the command ``name``, taking the options of
    its ``(flags, add_argument keywords)`` pairs as keyword arguments."""

    def register(run):
        sub = _COMMANDS.add_parser(
            name, help=run.__doc__.splitlines()[0], description=run.__doc__
        )
        for flags, kwargs in arguments:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=run)
        return run

    return register


@_command("catalog", _arg("name", nargs="?"), _FORMAT_ARG)
def catalog_cmd(name, fmt):
    """List the built-in examples, or export one as quiver JSON."""
    from . import catalog as cat

    if name is None:
        rows = [(nm, cat.entry_description(nm), nm in cat.TEMPLATES) for nm in cat.entry_names()]
        _emit(
            {"entries": [{"name": a, "description": b, "template": t} for a, b, t in rows]},
            [f"{a:14} {b}" for a, b, _ in rows],
            fmt,
        )
        return
    print(qv.quiver_to_json(cat.get_entry(name).quiver))


@_command(
    "check",
    *_QUIVER_ARGS,
    _arg("--chi"),
    _arg("--chi-file"),
    *_POINT_ARGS,
    _arg("--strict", action="store_true", help="fail (exit 1) if the point violates relations"),
    _FORMAT_ARG,
)
def check_cmd(example, quiver_path, chi, chi_file, point_path, taut, fiber, strict, fmt):
    """King (semi)stability of a point for a character."""
    from . import points as pts
    from . import stability as st

    q, entry = _load_quiver(example, quiver_path)
    character = _parse_chi(q, chi, chi_file)
    p = _load_point(q, entry, point_path, taut, fiber)
    ok = pts.satisfies_relations(q, p)
    if strict and not ok:
        raise qv.DomainError("point does not satisfy the quiver relations")
    report = st.stability_report(q, p, character)
    verdict = "stable" if report.stable else ("semistable" if report.semistable else "unstable")
    lines = [verdict]
    if not ok:
        lines.append("warning: point does not satisfy the quiver relations")
    if report.violating_support is not None:
        lines.append(f"violating support: {list(report.violating_support)}")
    lines.append(f"supports: {report.supports_count}")
    _emit({**report.to_dict(), "satisfies_relations": ok}, lines, fmt)


@_command("certify", *_QUIVER_ARGS, *_WEIGHT_ARGS, _FORMAT_ARG)
def certify_cmd(example, quiver_path, m_entries, m_file, fmt):
    """Certify the character of a weight matrix as good/great.

    These are sufficiency certificates: an uncertified outcome means
    'not certified', not a proof of failure.
    """
    from . import stability as st

    q, _ = _load_quiver(example, quiver_path)
    # before the weights: their matrix is n x n, and a gg table bounds n by the input size
    if q.gg is None:
        raise UsageError("good certificate needs the gg table")
    m = _parse_weights(q.n, m_entries, m_file)
    great = st.certify_great(q, m)
    good = great.good
    character = st.character_from_weights(m)
    result = {
        "chi": list(character.chi),
        "good_certified": good.certified,
        "good_witness": list(good.witness) if good.witness else None,
        "great_certified": great.certified,
        "great_unreachable_pair": list(great.unreachable_pair)
        if great.unreachable_pair
        else None,
    }
    lines = [f"chi = {list(character.chi)}"]
    if great.certified:
        lines.append("great (global-generation + connectivity certificate)")
    elif good.certified:
        lines.append("good (global-generation certificate)")
        lines.append(
            f"great: not certified (no mixed moves from node {great.unreachable_pair[0]} "
            f"to node {great.unreachable_pair[1]})"
        )
    else:
        lines.append(
            f"good: not certified (weight at ({good.witness[0]},{good.witness[1]}) "
            "sits on a Hom sheaf not generated by global sections)"
        )
        lines.append("great: not certified")
    _emit(result, lines, fmt)


@_command(
    "character",
    *_WEIGHT_ARGS,
    _arg("--n", dest="size", type=_at_least_one, help="number of nodes (default: inferred)"),
    _arg("--spiral", action="store_true", help="add the canonical spiral shift (-1,0,...,0,1)"),
    _FORMAT_ARG,
)
def character_cmd(m_entries, m_file, size, spiral, fmt):
    """Character generated by a weight matrix."""
    m = _parse_weights(size, m_entries, m_file)
    if spiral:
        from . import helix as hx

        character = hx.theorem43_character(m)
    else:
        from . import stability as st

        character = st.character_from_weights(m)
    _emit({"chi": list(character.chi)}, [f"chi = {list(character.chi)}"], fmt)


@_command(
    "supports", *_QUIVER_ARGS, *_POINT_ARGS, _arg("--strict", action="store_true"), _FORMAT_ARG
)
def supports_cmd(example, quiver_path, point_path, taut, fiber, strict, fmt):
    """Subrepresentation supports of a point."""
    from . import points as pts
    from . import stability as st

    q, entry = _load_quiver(example, quiver_path)
    p = _load_point(q, entry, point_path, taut, fiber)
    ok = pts.satisfies_relations(q, p)
    if strict and not ok:
        raise qv.DomainError("point does not satisfy the quiver relations")
    fam = st.subrep_supports(q, p, warn=False)
    sets = [sorted(s) for s in fam.sorted_supports()]
    _emit(
        {"supports": sets, "count": len(sets), "satisfies_relations": ok},
        [str(s) for s in sets],
        fmt,
    )


@_command("cone", *_QUIVER_ARGS, *_POINT_ARGS, _FORMAT_ARG)
def cone_cmd(example, quiver_path, point_path, taut, fiber, fmt):
    """King inequalities of a point's support family, in polyhedral form."""
    from . import stability as st

    q, entry = _load_quiver(example, quiver_path)
    p = _load_point(q, entry, point_path, taut, fiber)
    cone = st.stability_cone(st.subrep_supports(q, p, warn=False))
    lines = [f"{list(v)} . chi <= 0" for v in cone.inequalities]
    lines.append(f"{list(cone.equality)} . chi = 0")
    _emit(cone.to_dict(), lines, fmt)


@_command(
    "cycles",
    *_QUIVER_ARGS,
    _arg("--max-len", type=_at_least_one, help="walk length cap (default 2n)"),
    _FORMAT_ARG,
)
def cycles_cmd(example, quiver_path, max_len, fmt):
    """Closed walks up to rotation, the generators of the invariant functions."""
    from . import invariants as inv

    q, _ = _load_quiver(example, quiver_path)
    if max_len is None:
        max_len = 2 * q.n
    cycles = inv.enumerate_cycles(q, max_len)
    ids = [list(c.arrow_ids()) for c in cycles]
    _emit(
        {"cycles": ids, "count": len(ids)},
        [" ".join(c) for c in ids] + [f"total: {len(ids)}"],
        fmt,
    )


@_command(
    "separate",
    _arg("--example", required=True),
    _arg("--pairs", type=_at_least_one, default=100, help="(default 100)"),
    _arg("--max-len", type=_at_least_one, help="cycle length cap (default 2n)"),
    _arg("--seed", type=_integer, default=0, help="(default 0)"),
    _FORMAT_ARG,
)
def separate_cmd(example, pairs, max_len, seed, fmt):
    """Sample point pairs on a total-space entry and test invariant separation."""
    from . import invariants as inv

    _, entry = _load_quiver(example, None)
    if max_len is None:
        max_len = 2 * entry.quiver.n
    report = inv.separation_experiment(entry, pairs, max_len, seed)
    lines = [
        f"cycles: {report.cycles}",
        f"pairs: {report.pairs}",
        f"separated: {report.separated} ({report.fraction})",
    ]
    for c in report.collisions:
        lines.append(f"collision: {c}")
    _emit(report.to_dict(), lines, fmt)


@_command(
    "extend",
    *_QUIVER_ARGS,
    _arg("--added-dim", type=_at_least_one, required=True),
    _arg("--labels", help="comma-separated labels for the added arrows"),
)
def extend_cmd(example, quiver_path, added_dim, labels):
    """Spiral-extend a chain quiver; prints the extended quiver as JSON."""
    from . import helix as hx

    q, _ = _load_quiver(example, quiver_path)
    label_list = labels.split(",") if labels is not None else None
    print(qv.quiver_to_json(hx.extend_spiral(q, added_dim, labels=label_list)))


def main(argv: list[str] | None = None) -> None:
    """Run one command; ``argv`` defaults to the process's arguments.  A
    reader that closes stdout early ends the process with exit 1, silently."""
    try:
        try:
            _run(sys.argv[1:] if argv is None else list(argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the flush at interpreter exit would fail again: point stdout at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)


def _run(args: list[str]) -> None:
    """Parse ``args`` and run the command, mapping its error to an exit code
    (see the module docstring)."""
    if not args:
        _PARSER.print_help(sys.stderr)
        raise SystemExit(2)
    namespace, extra = _PARSER.parse_known_args(args)
    options = vars(namespace)
    command, run = options.pop("command"), options.pop("run")
    parser = _COMMANDS.choices[command]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra):.40}")
    try:
        run(**options)
    except qv.DomainError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
