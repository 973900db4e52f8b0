"""SHA-1, HMAC-SHA1 and the IKE ``prf+`` expansion.

Conventional IPsec security associations in the paper use "3DES, SHA1" for
traffic confidentiality and integrity, and IKE's key-derivation PRF is an
HMAC.  The hash and the HMAC come from the standard library (``hashlib`` /
``hmac``); the test suite carries a from-scratch FIPS-180 / RFC 2104
implementation as the oracle they are checked against.

SHA-1 is used exactly as the 2003 system used it — as an integrity/PRF
primitive inside a trusted implementation — not as a collision-resistant
archival hash.
"""

from __future__ import annotations

import hashlib
import hmac


def sha1(message: bytes) -> bytes:
    """Compute the 20-byte SHA-1 digest of ``message``."""
    return hashlib.sha1(message).digest()


def sha1_hexdigest(message: bytes) -> str:
    """SHA-1 digest as a lowercase hex string."""
    return sha1(message).hex()


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 per RFC 2104."""
    return hmac.digest(key, message, "sha1")


def prf_expand(key: bytes, seed: bytes, length: int) -> bytes:
    """Expand key material to an arbitrary length with iterated HMAC-SHA1.

    This mirrors the IKE-style ``prf+`` construction: T1 = prf(K, seed | 1),
    T2 = prf(K, T1 | seed | 2), ... concatenated and truncated.  The VPN
    gateway uses it to stretch (QKD bits || Diffie-Hellman-less nonce
    material) into the KEYMAT an SA needs.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    output = b""
    previous = b""
    counter = 1
    while len(output) < length:
        previous = hmac_sha1(key, previous + seed + bytes([counter & 0xFF]))
        output += previous
        counter += 1
    return output[:length]
