"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (e.g. a point violating the
relations under --strict), 2 on input or parse errors.  Reports are
deterministic for a fixed seed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path as FsPath

import click

from . import catalog as cat
from . import helix as hx
from . import invariants as inv
from . import points as pts
from . import quiver as qv
from . import stability as st

CATALOG_ENV = "QUIVERSTAB_CATALOG"


class DomainError(click.ClickException):
    exit_code = 1


def _read_json(path, what: str, build):
    """``build`` applied to the JSON value in a file.  An unreadable file,
    invalid or too deeply nested JSON, and any value ``build`` rejects exit 2
    as ``bad {what}``."""
    try:
        return build(json.loads(FsPath(path).read_text()))
    except (LookupError, OSError, RecursionError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad {what}: {exc}")


def _load_quiver(example: str | None, quiver_path: str | None):
    """Resolve the quiver (and catalog entry, if any) from the CLI options."""
    if (example is None) == (quiver_path is None):
        raise click.UsageError("give exactly one of --example or --quiver")
    if quiver_path is not None:
        return _read_json(quiver_path, "quiver file", qv.quiver_from_dict), None
    try:
        entry = cat.get_entry(example)
        return entry.quiver, entry
    except cat.UnknownEntryError:
        pass
    root = os.environ.get(CATALOG_ENV)
    if root:
        path = FsPath(root) / f"{example}.json"
        if path.exists():
            return _read_json(path, "quiver file", qv.quiver_from_dict), None
    raise click.UsageError(
        f"unknown example {example!r}; built-ins are {', '.join(cat.entry_names())}"
    )


def _parse_chi(q, chi: str | None, chi_file: str | None) -> st.Character:
    if (chi is None) == (chi_file is None):
        raise click.UsageError("give exactly one of --chi or --chi-file")
    if chi_file is not None:
        character = _read_json(chi_file, "character file", lambda data: st.Character(data["chi"]))
    else:
        try:
            character = st.Character([int(x) for x in chi.split(",")])
        except ValueError as exc:
            raise click.UsageError(f"bad character {chi!r}: {exc}")
    if character.n != q.n:
        raise click.UsageError(f"character length {character.n} != quiver nodes {q.n}")
    return character


def _parse_weights(n: int | None, m_entries, m_file: str | None) -> st.WeightMatrix:
    """The weight matrix of --m entries or of --m-file.  With ``n`` None the
    size is inferred: the file's row count, or the largest entry index."""
    if m_entries and m_file:
        raise click.UsageError("give --m entries or --m-file, not both")
    if m_file is not None:
        m = _read_json(m_file, "weight file", lambda data: st.WeightMatrix(data["m"]))
        if n is not None and m.n != n:
            raise click.UsageError(f"weight matrix size {m.n} != {n} nodes")
        return m
    parsed = []
    for spec in m_entries:
        try:
            value, pair = spec.split("@")
            i, j = (int(x) for x in pair.split(","))
            parsed.append((spec, i, j, int(value)))
        except ValueError:
            raise click.UsageError(f"bad weight entry {spec!r}; expected like 1@1,4")
    if n is None:
        if not parsed:
            raise click.UsageError("give --n when no weight entries are supplied")
        n = max(max(i, j) for _, i, j, _ in parsed)
    entries: dict[tuple[int, int], int] = {}
    for spec, i, j, value in parsed:
        if not (1 <= i <= n and 1 <= j <= n):
            raise click.UsageError(f"weight entry {spec!r} out of range 1..{n}")
        entries[(i, j)] = entries.get((i, j), 0) + value
    try:
        return st.WeightMatrix.from_entries(n, entries)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _load_point(q, entry, point_path, taut, fiber) -> pts.RepresentationPoint:
    if (point_path is None) == (taut is None):
        raise click.UsageError("give exactly one of --point or --taut")
    if point_path is not None:
        return _read_json(
            point_path,
            "point file",
            lambda data: pts.RepresentationPoint.for_quiver(q, pts.point_from_dict(data).as_dict()),
        )
    if entry is None:
        raise click.UsageError("--taut needs a catalog --example with coordinate data")
    try:
        return cat.tautological_point(entry, taut.split(":"), fiber)
    except cat.IrrelevantLocusError as exc:
        raise DomainError(str(exc))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(result: dict, text_lines: list[str], fmt: str):
    if fmt == "json":
        click.echo(json.dumps(result, indent=2))
    else:
        for line in text_lines:
            click.echo(line)


_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)


@click.group()
def main():
    """Stability, certification, and invariants for quivers of line bundles."""


@main.command("catalog")
@click.argument("name", required=False)
@_format_option
def catalog_cmd(name, fmt):
    """List the built-in examples, or export one as quiver JSON."""
    if name is None:
        rows = [(nm, cat.entry_description(nm)) for nm in cat.entry_names()]
        _emit(
            {"entries": [{"name": a, "description": b} for a, b in rows]},
            [f"{a:14} {b}" for a, b in rows],
            fmt,
        )
        return
    try:
        entry = cat.get_entry(name)
    except cat.UnknownEntryError:
        raise click.UsageError(f"unknown example {name!r}")
    click.echo(qv.quiver_to_json(entry.quiver))


@main.command("check")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option("--chi")
@click.option("--chi-file")
@click.option("--point", "point_path")
@click.option("--taut")
@click.option("--fiber")
@click.option("--strict", is_flag=True, help="fail (exit 1) if the point violates relations")
@_format_option
def check_cmd(example, quiver_path, chi, chi_file, point_path, taut, fiber, strict, fmt):
    """King (semi)stability of a point for a character."""
    q, entry = _load_quiver(example, quiver_path)
    character = _parse_chi(q, chi, chi_file)
    p = _load_point(q, entry, point_path, taut, fiber)
    ok = pts.satisfies_relations(q, p)
    if strict and not ok:
        raise DomainError("point does not satisfy the quiver relations")
    try:
        report = st.stability_report(q, p, character)
    except st.EnumerationCapError as exc:
        raise DomainError(str(exc))
    result = report.to_dict()
    result["satisfies_relations"] = ok
    verdict = "stable" if report.stable else ("semistable" if report.semistable else "unstable")
    lines = [verdict]
    if not ok:
        lines.append("warning: point does not satisfy the quiver relations")
    if report.violating_support is not None:
        lines.append(f"violating support: {list(report.violating_support)}")
    lines.append(f"supports: {report.supports_count}")
    _emit(result, lines, fmt)


@main.command("certify")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option("--m", "m_entries", multiple=True, help="weight entries like 1@1,4")
@click.option("--m-file")
@_format_option
def certify_cmd(example, quiver_path, m_entries, m_file, fmt):
    """Certify the character of a weight matrix as good/great.

    These are sufficiency certificates: an uncertified outcome means
    'not certified', not a proof of failure.
    """
    q, _ = _load_quiver(example, quiver_path)
    # before the weights: their matrix is n x n, and a gg table bounds n by the input size
    if q.gg is None:
        raise click.UsageError("good certificate needs the gg table")
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


@main.command("character")
@click.option("--m", "m_entries", multiple=True, help="weight entries like 1@1,4")
@click.option("--m-file")
@click.option("--n", "size", type=int, help="number of nodes (default: inferred)")
@click.option("--spiral", is_flag=True, help="add the canonical spiral shift (-1,0,...,0,1)")
@_format_option
def character_cmd(m_entries, m_file, size, spiral, fmt):
    """Character generated by a weight matrix."""
    m = _parse_weights(size, m_entries, m_file)
    character = hx.theorem43_character(m) if spiral else st.character_from_weights(m)
    _emit({"chi": list(character.chi)}, [f"chi = {list(character.chi)}"], fmt)


@main.command("supports")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option("--point", "point_path")
@click.option("--taut")
@click.option("--fiber")
@click.option("--strict", is_flag=True)
@_format_option
def supports_cmd(example, quiver_path, point_path, taut, fiber, strict, fmt):
    """Subrepresentation supports of a point."""
    q, entry = _load_quiver(example, quiver_path)
    p = _load_point(q, entry, point_path, taut, fiber)
    ok = pts.satisfies_relations(q, p)
    if strict and not ok:
        raise DomainError("point does not satisfy the quiver relations")
    try:
        fam = st.subrep_supports(q, p, warn=False)
    except st.EnumerationCapError as exc:
        raise DomainError(str(exc))
    sets = [sorted(s) for s in fam.sorted_supports()]
    _emit(
        {"supports": sets, "count": len(sets), "satisfies_relations": ok},
        [str(s) for s in sets],
        fmt,
    )


@main.command("cone")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option("--point", "point_path")
@click.option("--taut")
@click.option("--fiber")
@_format_option
def cone_cmd(example, quiver_path, point_path, taut, fiber, fmt):
    """King inequalities of a point's support family, in polyhedral form."""
    q, entry = _load_quiver(example, quiver_path)
    p = _load_point(q, entry, point_path, taut, fiber)
    try:
        cone = st.stability_cone(st.subrep_supports(q, p, warn=False))
    except st.EnumerationCapError as exc:
        raise DomainError(str(exc))
    lines = [f"{list(v)} . chi <= 0" for v in cone.inequalities]
    lines.append(f"{list(cone.equality)} . chi = 0")
    _emit(cone.to_dict(), lines, fmt)


@main.command("cycles")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option(
    "--max-len", type=click.IntRange(min=1), default=None, help="walk length cap (default 2n)"
)
@_format_option
def cycles_cmd(example, quiver_path, max_len, fmt):
    """Closed walks up to rotation, the generators of the invariant functions."""
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


@main.command("separate")
@click.option("--example", required=True)
@click.option("--pairs", type=int, default=100, show_default=True)
@click.option(
    "--max-len", type=click.IntRange(min=1), default=None, help="cycle length cap (default 2n)"
)
@click.option("--seed", type=int, default=0, show_default=True)
@_format_option
def separate_cmd(example, pairs, max_len, seed, fmt):
    """Sample point pairs on a total-space entry and test invariant separation."""
    _, entry = _load_quiver(example, None)
    if entry is None or not entry.fiber:
        raise click.UsageError(f"example {example!r} has no fiber data")
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


@main.command("extend")
@click.option("--example")
@click.option("--quiver", "quiver_path")
@click.option("--added-dim", type=int, required=True)
@click.option("--labels", help="comma-separated labels for the added arrows")
def extend_cmd(example, quiver_path, added_dim, labels):
    """Spiral-extend a chain quiver; prints the extended quiver as JSON."""
    q, _ = _load_quiver(example, quiver_path)
    label_list = labels.split(",") if labels else None
    try:
        extended = hx.extend_spiral(q, added_dim, labels=label_list)
    except qv.QuiverError as exc:
        raise DomainError(str(exc))
    click.echo(qv.quiver_to_json(extended))


if __name__ == "__main__":
    main()
