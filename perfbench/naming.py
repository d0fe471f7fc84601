"""Variable naming shared by the input generator and the worker.

Generated variables are PREFIX + two digits.  The k-th pass of a run
renames PREFIX to prefix(k); the new names sort in the same order, so the
work and every countermodel stay the same while the formulas are new.
"""

PREFIX = "xaa"


def prefix(k: int) -> str:
    """Prefix of the variables in the k-th pass of a run (k = 0 is PREFIX)."""
    return "x" + chr(97 + k // 26 % 26) + chr(97 + k % 26) if k < 676 else f"x{k}z"


def rename(obj, k: int):
    """Deep-copy `obj` (JSON data) with PREFIX replaced by prefix(k) in strings."""
    new = prefix(k)
    if isinstance(obj, str):
        return obj.replace(PREFIX, new)
    if isinstance(obj, list):
        return [rename(x, k) for x in obj]
    if isinstance(obj, dict):
        return {key: rename(value, k) for key, value in obj.items()}
    return obj
