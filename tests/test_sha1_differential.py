"""Differential and known-answer tests for :mod:`repro.crypto.sha1`.

The library takes SHA-1 and HMAC-SHA1 from the standard library.  These tests
hold it to the from-scratch FIPS-180 / RFC 2104 oracle in
``tests/sha1_reference.py`` on randomised inputs, including the HMAC key
lengths either side of the 64-byte block boundary, and pin outputs recorded
from the from-scratch implementation through IKE KEYMAT derivation and ESP
framing, so the whole rekey path stays byte-identical, not only the primitive.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import sha1_reference

from repro.core.keypool import KeyPool
from repro.crypto.sha1 import hmac_sha1, prf_expand, sha1
from repro.ipsec.esp import EspProcessor
from repro.ipsec.ike import IKEConfig, IKEDaemon
from repro.ipsec.packets import IPPacket
from repro.ipsec.sad import SecurityAssociation, SecurityAssociationDatabase
from repro.ipsec.spd import CipherSuite, SecurityPolicy
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG

#: HMAC key lengths around the 64-byte block: empty, a SHA-1 digest, one
#: short of a block, a block, one past it (hashed first), and well past it.
HMAC_KEY_LENGTHS = (0, 20, 63, 64, 65, 200)

# Known answers recorded from the from-scratch SHA-1 before the stdlib swap.
PINNED_PRF_100 = (
    "69e441d05cd53b386777fe9b03d0a5125e506e30210628a9d11c5c08772b2e5c402e1d4f"
    "6a2fa60e562caca6b335e23ecd4b11fe0d0f9be83acf9b758d093317fe6a4572286d5513"
    "28e59c4806c09c55786e9f943e63db6d93650d64689465343f1ce08f"
)
PINNED_KEYMAT_OUT = "3593b0401f4728b8af105b6ef15c9ffbbfb3b9fd05cb75fbf048dc579bccc5d9599fe942"
PINNED_KEYMAT_IN = "b8a03a3492a8444d64396e5429733ed35bc6011ede3da663e221d683359925cb2080e0ba"
PINNED_ESP_PACKET = (
    "0000030000000001216363698b529b4a97b750923ceb3ffde670560a7c7013633c4e6d54"
    "e8506b38a9fa9d618717e96b238f54901228122fb7da3dca2e3348bb2e228ba869ba6c7a"
    "bf014b5cf6b9ed3cebae63e6db1e362ddb3c45f8df83245413c1f0d2478f5166ba52cf2a"
    "355cc8f17ce51b16"
)


class TestReferenceOracle:
    """The oracle itself must be right before it can judge anything."""

    def test_fips_180_vectors(self):
        assert sha1_reference.sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        assert sha1_reference.sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
        two_blocks = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert sha1_reference.sha1(two_blocks).hex() == (
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        )

    def test_rfc_2202_vectors(self):
        assert sha1_reference.hmac_sha1(b"\x0b" * 20, b"Hi There").hex() == (
            "b617318655057264e28bc0b6fb378c8ef146be00"
        )
        long_key_message = b"Test Using Larger Than Block-Size Key - Hash Key First"
        assert sha1_reference.hmac_sha1(b"\xaa" * 80, long_key_message).hex() == (
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        )

    def test_prf_expand_rejects_negative_length(self):
        with pytest.raises(ValueError):
            sha1_reference.prf_expand(b"k", b"s", -1)
        with pytest.raises(ValueError):
            prf_expand(b"k", b"s", -1)


class TestDifferential:
    @given(st.binary(max_size=600))
    @settings(max_examples=60, deadline=None)
    def test_sha1(self, message):
        assert sha1(message) == sha1_reference.sha1(message) == hashlib.sha1(message).digest()

    @pytest.mark.parametrize("key_length", HMAC_KEY_LENGTHS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_hmac_sha1(self, key_length, data):
        key = data.draw(st.binary(min_size=key_length, max_size=key_length))
        message = data.draw(st.binary(max_size=300))
        assert hmac_sha1(key, message) == sha1_reference.hmac_sha1(key, message)

    @pytest.mark.parametrize("key_length", HMAC_KEY_LENGTHS)
    def test_hmac_sha1_empty_message(self, key_length):
        key = bytes(i % 256 for i in range(key_length))
        assert hmac_sha1(key, b"") == sha1_reference.hmac_sha1(key, b"")

    @given(
        key=st.binary(max_size=100),
        seed=st.binary(max_size=120),
        length=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_prf_expand(self, key, seed, length):
        assert prf_expand(key, seed, length) == sha1_reference.prf_expand(key, seed, length)

    def test_prf_expand_every_length(self):
        for length in range(201):
            expected = sha1_reference.prf_expand(b"skeyid", b"nonces|spi", length)
            assert prf_expand(b"skeyid", b"nonces|spi", length) == expected


class TestKnownAnswers:
    def test_prf_expand(self):
        assert prf_expand(b"qkd-skeyid", b"nonce-i|nonce-r|spi", 100).hex() == PINNED_PRF_100

    def test_ike_phase2_keymat(self):
        shared = BitString.random(60_000, DeterministicRNG(50))
        alice_pool, bob_pool = KeyPool(name="alice"), KeyPool(name="bob")
        alice_pool.add_bits(shared)
        bob_pool.add_bits(shared)
        alice = IKEDaemon(
            IKEConfig("alice-gw", "192.1.99.34", "192.1.99.35"),
            alice_pool,
            SecurityAssociationDatabase(),
            DeterministicRNG(1),
        )
        bob = IKEDaemon(
            IKEConfig("bob-gw", "192.1.99.35", "192.1.99.34"),
            bob_pool,
            SecurityAssociationDatabase(),
            DeterministicRNG(2),
        )
        alice.establish_phase1(bob)
        outbound, inbound = alice.negotiate_phase2(
            bob, SecurityPolicy("enclave", "10.1.0.0/16", "10.2.0.0/16")
        )
        # KEYMAT = cipher key || HMAC-SHA1 key for a 128-bit AES policy.
        assert (outbound.encryption_key + outbound.authentication_key).hex() == PINNED_KEYMAT_OUT
        assert (inbound.encryption_key + inbound.authentication_key).hex() == PINNED_KEYMAT_IN

    def test_esp_packet(self):
        sa = SecurityAssociation(
            spi=0x300,
            source_gateway="a",
            destination_gateway="b",
            cipher_suite=CipherSuite.AES_QKD_RESEED,
            encryption_key=bytes(range(16)),
            authentication_key=bytes(range(20)),
            lifetime_seconds=60.0,
        )
        packet = IPPacket("10.1.0.1", "10.2.0.1", b"hello", protocol="udp", identifier=5)
        wire = EspProcessor(DeterministicRNG(3)).encapsulate(packet, sa, "1.1.1.1", "2.2.2.2")
        on_wire = wire.header_bytes() + wire.iv + wire.ciphertext + wire.auth_tag
        assert on_wire.hex() == PINNED_ESP_PACKET
