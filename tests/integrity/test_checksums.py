"""Unit gate for the block-CRC sidecars (repro.integrity.checksums)."""

import numpy as np
import pytest

from repro.errors import IntegrityError
from repro.integrity import ChecksummedArrays


class TestSealVerify:
    def test_clean_roundtrip(self):
        cs = ChecksummedArrays()
        a = np.arange(1000, dtype=np.int64)
        cs.seal("a", a)
        cs.verify("a", a)
        cs.verify("a", a.copy())  # identity-free: bytes, not buffers
        assert cs.verifications == 2
        assert cs.mismatches == 0

    def test_single_bit_flip_detected_and_localized(self):
        cs = ChecksummedArrays(block_bytes=64)
        a = np.zeros(100, dtype=np.int64)
        cs.seal("indices", a)
        a[70] ^= 1  # byte offset 560 -> block 8 at 64 B/block
        with pytest.raises(IntegrityError) as exc:
            cs.verify("indices", a, context="phase[2]:trim")
        msg = str(exc.value)
        assert "indices" in msg
        assert "block=8" in msg
        assert "phase[2]:trim" in msg
        assert exc.value.array == "indices"
        assert exc.value.block == 8
        assert cs.mismatches == 1

    def test_every_block_is_covered(self):
        cs = ChecksummedArrays(block_bytes=16)
        a = np.arange(64, dtype=np.uint8)
        cs.seal("a", a)
        for i in range(a.size):
            b = a.copy()
            b[i] ^= 0x80
            with pytest.raises(IntegrityError):
                cs.verify("a", b)

    def test_dtype_drift_detected(self):
        cs = ChecksummedArrays()
        a = np.zeros(8, dtype=np.int64)
        cs.seal("a", a)
        with pytest.raises(IntegrityError, match="drifted"):
            cs.verify("a", a.view(np.uint64))

    def test_byte_order_drift_detected(self):
        """The seal compares whole dtypes: the same bytes read as
        big-endian hash the same but are another array."""
        cs = ChecksummedArrays()
        a = np.arange(8, dtype=np.int64)
        cs.seal("a", a)
        cs.verify("a", a.copy())
        with pytest.raises(IntegrityError, match="drifted"):
            cs.verify("a", a.view(">i8"))

    def test_length_drift_detected(self):
        cs = ChecksummedArrays()
        a = np.zeros(8, dtype=np.int64)
        cs.seal("a", a)
        with pytest.raises(IntegrityError, match="drifted"):
            cs.verify("a", a[:4])

    def test_unsealed_name_is_a_caller_bug(self):
        cs = ChecksummedArrays()
        with pytest.raises(KeyError):
            cs.verify("ghost", np.zeros(1))

    def test_empty_array_seals_and_verifies(self):
        cs = ChecksummedArrays()
        a = np.empty(0, dtype=np.int64)
        cs.seal("empty", a)
        cs.verify("empty", np.empty(0, dtype=np.int64))

    def test_readonly_view_seals_like_its_owner(self):
        base = np.arange(50, dtype=np.int64)
        view = base.view()
        view.setflags(write=False)
        cs = ChecksummedArrays()
        cs.seal("a", view)
        cs.verify("a", base)
        base[3] ^= 1
        with pytest.raises(IntegrityError):
            cs.verify("a", view)


class TestVerifyAll:
    def test_skips_unsealed_by_default(self):
        cs = ChecksummedArrays()
        a = np.arange(10)
        cs.seal("a", a)
        checked = cs.verify_all({"a": a, "later": np.zeros(3)})
        assert checked == 1

    def test_require_all_sealed(self):
        cs = ChecksummedArrays()
        with pytest.raises(KeyError):
            cs.verify_all(
                {"never": np.zeros(3)}, require_all_sealed=True
            )

    def test_reports_first_corrupt_array(self):
        cs = ChecksummedArrays()
        a, b = np.arange(10), np.arange(20)
        cs.seal("a", a)
        cs.seal("b", b)
        b2 = b.copy()
        b2[0] ^= 1
        with pytest.raises(IntegrityError) as exc:
            cs.verify_all({"a": a, "b": b2})
        assert exc.value.array == "b"


class TestBookkeeping:
    def test_reseal_replaces(self):
        cs = ChecksummedArrays()
        a = np.arange(10)
        cs.seal("a", a)
        a[0] = 99
        cs.seal("a", a)
        cs.verify("a", a)
        assert cs.seals == 2

    def test_drop_and_names(self):
        cs = ChecksummedArrays()
        cs.seal("b", np.zeros(1))
        cs.seal("a", np.zeros(1))
        assert cs.names == ("a", "b")
        assert cs.drop("a")
        assert not cs.drop("a")
        assert not cs.sealed("a")
        assert len(cs) == 1

    def test_crc32_stable_and_content_sensitive(self):
        cs1, cs2 = ChecksummedArrays(), ChecksummedArrays()
        a = np.arange(100_000, dtype=np.int64)
        cs1.seal("a", a)
        cs2.seal("a", a.copy())
        assert cs1.crc32("a") == cs2.crc32("a")
        assert cs1.crc32("missing") is None
        b = a.copy()
        b[12345] ^= 1
        cs2.seal("a", b)
        assert cs1.crc32("a") != cs2.crc32("a")

    def test_block_bytes_validated(self):
        with pytest.raises(ValueError):
            ChecksummedArrays(block_bytes=0)

    def test_to_dict(self):
        cs = ChecksummedArrays()
        cs.seal("a", np.zeros(4))
        cs.verify("a", np.zeros(4))
        d = cs.to_dict()
        assert d["sealed_arrays"] == 1
        assert d["verifications"] == 1
        assert d["mismatches"] == 0
