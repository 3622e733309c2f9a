#!/usr/bin/env python3
"""Validate a Prometheus text-exposition document (version 0.0.4).

Usage:
    check_prometheus.py <file|-> [required_family ...]

Checks, line by line:
  * metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*``
  * label names match ``[a-zA-Z_][a-zA-Z0-9_]*`` and label values use only
    the legal escapes (``\\\\``, ``\\"``, ``\\n``)
  * sample values parse as floats (including +Inf/-Inf/NaN)
  * ``# TYPE``/``# HELP`` lines, when present, are well-formed
  * a family has at most one ``# TYPE`` line, and it comes before the
    family's first sample (a summary's or histogram's ``_sum``/``_count``/
    ``_bucket`` samples belong to it)
  * no raw control characters anywhere

Any ``required_family`` arguments must appear as a sample's metric name
(label sets and suffixes like ``_sum``/``_count`` don't count — the exact
family must carry at least one sample).

Exit codes: 0 ok, 1 malformed exposition or missing family.
"""

import re
import sys

METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")
# A label value is any run of characters with backslash escapes; only
# \\ \" \n are legal escapes inside the quotes.
LABELS = re.compile(r'\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\}$')
SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # name
    r"(\{.*\})?"  # optional label set (validated separately)
    r" ([^ ]+)"  # value
    r"( [0-9]+)?$"  # optional timestamp
)
LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def is_float(tok):
    if tok in ("+Inf", "-Inf", "Inf", "NaN"):
        return True
    try:
        float(tok)
        return True
    except ValueError:
        return False


def check(text):
    """Return (families_seen, errors)."""
    errors = []
    families = set()
    typed = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if any(ord(c) < 0x20 and c != "\t" for c in line):
            errors.append(f"line {lineno}: raw control character")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("TYPE", "HELP"):
                if len(parts) < 3 or not METRIC_NAME.match(parts[2]):
                    errors.append(f"line {lineno}: malformed # {parts[1]} line")
                elif parts[1] == "TYPE" and (
                    len(parts) < 4
                    or parts[3]
                    not in ("counter", "gauge", "histogram", "summary", "untyped")
                ):
                    errors.append(f"line {lineno}: unknown TYPE {parts[3:]!r}")
                elif parts[1] == "TYPE":
                    fam = parts[2]
                    if fam in typed:
                        errors.append(f"line {lineno}: second # TYPE line for {fam}")
                    typed.add(fam)
                    names = {fam}
                    if parts[3] in ("summary", "histogram"):
                        names |= {fam + s for s in ("_sum", "_count", "_bucket")}
                    if names & families:
                        errors.append(
                            f"line {lineno}: # TYPE line for {fam} after its first sample"
                        )
            continue  # other comments are free-form
        m = SAMPLE.match(line)
        if not m:
            errors.append(f"line {lineno}: not a sample line: {line[:80]!r}")
            continue
        name, labelset, value = m.group(1), m.group(2), m.group(3)
        families.add(name)
        if labelset:
            body = labelset[1:-1].rstrip(",")
            consumed = 0
            for pm in LABEL_PAIR.finditer(body):
                consumed = pm.end()
                bad = re.search(r'\\[^\\"n]', pm.group(2))
                if bad:
                    errors.append(
                        f"line {lineno}: illegal escape {bad.group(0)!r} "
                        f"in label {pm.group(1)}"
                    )
            leftover = body[consumed:].strip(", ")
            if leftover:
                errors.append(f"line {lineno}: malformed label set near {leftover[:40]!r}")
        if not is_float(value):
            errors.append(f"line {lineno}: non-numeric value {value!r}")
    return families, errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    src = argv[1]
    text = sys.stdin.read() if src == "-" else open(src).read()
    families, errors = check(text)
    for fam in argv[2:]:
        if fam not in families:
            errors.append(f"required family missing: {fam}")
    for e in errors:
        print(f"  {e}")
    n_samples = sum(1 for ln in text.splitlines() if ln and not ln.startswith("#"))
    print(
        f"check_prometheus: {len(families)} families, {n_samples} samples, "
        f"{len(errors)} error(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
