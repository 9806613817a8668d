"""Verify levels expanded back into (input, expected, actual, passed) rows.

Not collected by pytest: the tests that read a suite's cases one by one
import rows() from here.
"""


def rows(*levels):
    """The cases of levels as rows, level by level: case i of a level
    (prefix, labels, suffix, texts, index) is prefix + str(labels[i]) +
    suffix followed by its text texts[index[i]]."""
    return [
        (f"{prefix}{label}{suffix}", *texts[i])
        for prefix, labels, suffix, texts, index in levels
        for label, i in zip(labels, index, strict=True)
    ]
