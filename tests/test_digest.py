"""The determinism digest of `tests/digest.py`, pinned.

`tests/digest.py` is the one definition of the set and of the hash; this
test imports it and compares its digest with `PINNED`. The pin holds on
the interpreter and C library it was taken on, `FINGERPRINT`
(`sys.version`, `platform.libc_ver()`): another libm may round a sine or
an exponential differently in the last bit. On any other fingerprint the
test skips and names both.

The rule: only a change that moves the numerics on purpose updates the
pin, in the same commit, and lists the old and the new digest in
CHANGES.md with the before/after summaries. No other change touches it.
A mismatch names the two digests only, not the file that moved: pinning
a hash per file would put about 300 values in this file, and writing the
set's files out at both commits and comparing them finds it.
"""

import platform
import sys
import warnings

import pytest

import digest
from rollguard import qp

PINNED = "e77eb34e429c47aefaf96128dec4f468c8e9a676a6a90b87ab5b81a811532838"
FINGERPRINT = ("3.11.7 (main, May  9 2026, 07:35:25) [GCC 12.2.0]", ("glibc", "2.36"))


def test_digest_matches_the_pin():
    here = (sys.version, platform.libc_ver())
    if here != FINGERPRINT:
        pytest.skip(f"the pin was taken on {FINGERPRINT!r}; this is {here!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qp.DegenerateRowWarning)
        assert digest.digest() == PINNED
