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
set's files out at both commits (`python tests/digest.py --out DIR`) and
comparing them finds it.
"""

import platform
import sys
import warnings

import pytest

import digest
from rollguard import qp
from rollguard.scenario import Scenario

PINNED = "4a3bcf4cd118f9c285f3c26d888d2c88b22f37e709aae309af829780b888b741"
FINGERPRINT = ("3.11.7 (main, May  9 2026, 07:35:25) [GCC 12.2.0]", ("glibc", "2.36"))


def test_digest_matches_the_pin():
    here = (sys.version, platform.libc_ver())
    if here != FINGERPRINT:
        pytest.skip(f"the pin was taken on {FINGERPRINT!r}; this is {here!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qp.DegenerateRowWarning)
        assert digest.digest() == PINNED


def test_out_writes_every_hashed_item(tmp_path, monkeypatch):
    """`digest(out)` returns the digest that `digest()` returns and writes
    the bytes of every hashed item at its file under `out`, one file per
    item; on a set cut to one short point and one config."""
    monkeypatch.setattr(digest, "_points", lambda: iter([("/short", Scenario(horizon=0.2))]))
    monkeypatch.setattr(digest, "CONFIGS", digest.CONFIGS[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qp.DegenerateRowWarning)
        items = list(digest.items())
        plain = digest.digest()
        written = digest.digest(out=tmp_path)
    assert written == plain
    files = {path.relative_to(tmp_path).as_posix(): path.read_bytes()
             for path in tmp_path.rglob("*") if path.is_file()}
    assert files == {name: data for _, data, name in items}
    assert len(files) == len(items) == 5 * 2 + 2 * (1 + 11) + 1
