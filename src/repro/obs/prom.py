"""Prometheus exposition: declared families, one renderer, a linter.

Every page in this repo is a tuple of :class:`Family` declarations
rendered by :func:`exposition`: ``repro.fabric.report`` declares the
serving layer's families, ``repro.trace.export`` the simulator's.  A
family holds its name, type and ``# HELP`` text once, plus a function
that yields its ``(suffix, labels, value)`` samples from a source dict;
the renderer writes the ``# HELP``/``# TYPE`` header, skips ``None``
samples and leaves out a family with nothing left.  Label values and
HELP text are escaped here per the exposition-format spec (``\\`` →
``\\\\``, ``"`` → ``\\"``, newline → ``\\n``).

:func:`lint_exposition` is the self-check CI's ``obs-smoke`` job runs
over every scraped page: family headers present, metric names legal,
label blocks parse, sample values numeric, ``quantile`` labels
fractional.  It is deliberately strict about exactly the properties
``promtool check metrics`` cares about, without needing promtool.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Legal metric / label name per the Prometheus data model.
_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: One sample line: name, optional {labels}, value (exponents allowed).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)

#: One label pair inside a label block, with escape-aware value capture.
_LABEL_RE = re.compile(r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def escape_label_value(value: object) -> str:
    """Escape one label value for ``name{label="..."}`` interpolation."""
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help_text(text: str) -> str:
    """Escape free text for a ``# HELP`` line (backslash and newline)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def prom_sample(name: str, value, labels: Optional[Dict[str, object]] = None) -> str:
    """Render one sample line, labels sorted and escaping-correct."""
    if labels:
        inner = ",".join(
            '%s="%s"' % (k, escape_label_value(v)) for k, v in sorted(labels.items())
        )
        return "%s{%s} %s" % (name, inner, value)
    return "%s %s" % (name, value)


def prom_header(name: str, mtype: str, help_text: str) -> List[str]:
    """The ``# HELP`` + ``# TYPE`` pair that opens one metric family."""
    return [
        "# HELP %s %s" % (name, escape_help_text(help_text)),
        "# TYPE %s %s" % (name, mtype),
    ]


#: One sample: name suffix (``""``, ``"_count"``, ...), labels, value.
Sample = Tuple[str, Optional[Dict[str, object]], object]


class Family(NamedTuple):
    """One metric family, declared once: ``samples(source)`` yields its
    :data:`Sample` rows (``None`` values are not rendered)."""

    name: str
    type: str
    help: str
    samples: Callable[[dict], Iterable[Sample]]


def exposition(
    families: Sequence[Family],
    source: dict,
    labels: Optional[Dict[str, object]] = None,
) -> str:
    """Render *families* over *source* as one exposition page.

    *labels* are constant labels added to every sample (a sample's own
    label of the same name wins).  A family whose samples are all
    ``None`` is left out entirely, header included.
    """
    lines: List[str] = []
    for family in families:
        rows = [row for row in family.samples(source) if row[2] is not None]
        if not rows:
            continue
        lines.extend(prom_header(family.name, family.type, family.help))
        for suffix, own, value in rows:
            lines.append(
                prom_sample(family.name + suffix, value, dict(labels or {}, **(own or {})))
            )
    return "\n".join(lines) + "\n"


def _parse_labels(block: str) -> Optional[List[Tuple[str, str]]]:
    """Parse a label block; None when it does not fully parse."""
    out: List[Tuple[str, str]] = []
    pos = 0
    text = block.strip()
    if not text:
        return out
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            return None
        out.append((match.group("name"), match.group("value")))
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                return None
            pos += 1
    return out


def lint_exposition(text: str) -> List[str]:
    """Lint one exposition page; returns a list of problems (empty = ok).

    Checks the properties scrapers actually depend on:

    - every sample's family has both a ``# TYPE`` and a ``# HELP`` line
      *before* its first sample (summary ``_sum``/``_count`` suffixes
      resolve to their base family);
    - metric and label names are legal, label blocks parse (so the
      escaping is correct), sample values are finite-or-(+/-Inf/NaN)
      floats;
    - ``quantile`` label values are fractional (``0.95``, never ``95``);
    - ``# TYPE`` values are legal metric types;
    - the page ends with a newline.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    if text and not text.endswith("\n"):
        problems.append("page does not end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "summary", "histogram", "untyped",
            ):
                problems.append("line %d: malformed TYPE line: %r" % (lineno, line))
                continue
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                problems.append("line %d: malformed HELP line: %r" % (lineno, line))
                continue
            helped[parts[2]] = parts[3] if len(parts) == 4 else ""
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append("line %d: unparseable sample: %r" % (lineno, line))
            continue
        name = match.group("name")
        family = name
        for suffix in ("_sum", "_count", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
        if not _NAME_RE.match(name):
            problems.append("line %d: illegal metric name %r" % (lineno, name))
        if family not in typed:
            problems.append("line %d: no # TYPE before sample of %r" % (lineno, name))
        if family not in helped:
            problems.append("line %d: no # HELP before sample of %r" % (lineno, name))
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                "line %d: non-numeric sample value %r" % (lineno, match.group("value"))
            )
        block = match.group("labels")
        if block is None:
            continue
        labels = _parse_labels(block)
        if labels is None:
            problems.append("line %d: unparseable label block {%s}" % (lineno, block))
            continue
        for label_name, label_value in labels:
            if not _LABEL_NAME_RE.match(label_name):
                problems.append("line %d: illegal label name %r" % (lineno, label_name))
            if label_name == "quantile":
                try:
                    q = float(label_value)
                except ValueError:
                    q = math.nan
                if not 0.0 <= q <= 1.0:
                    problems.append(
                        "line %d: quantile label %r is not fractional (0..1)"
                        % (lineno, label_value)
                    )
    return problems
