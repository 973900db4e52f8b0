"""Symmetric cryptographic substrate for the QKD-secured VPN.

The DARPA Quantum Network uses the distilled QKD bits in two ways (paper §7):
as continually-reseeded keys for conventional symmetric ciphers (AES, 3DES)
protecting IPsec security associations, and as a Vernam one-time pad for the
most sensitive traffic.  Authentication of both the QKD protocols and the VPN
traffic uses Wegman-Carter universal hashing keyed from a shared secret pool.

No external crypto libraries are used.  SHA-1 and HMAC-SHA1 come from the
standard library (``hashlib`` / ``hmac``), checked against a from-scratch
FIPS-180 / RFC 2104 oracle kept in ``tests/``; everything else is implemented
here from scratch:

* :mod:`repro.crypto.aes` — AES-128/192/256 block cipher.
* :mod:`repro.crypto.modes` — ECB, CBC and CTR modes of operation.
* :mod:`repro.crypto.sha1` — SHA-1, HMAC-SHA1 and the IKE ``prf+`` expansion
  (the paper's "SHA1" integrity primitive for conventional IPsec SAs).
* :mod:`repro.crypto.otp` — the one-time pad with an explicit pad pool, and
  the word-wide ``xor_bytes`` every pad and mode XOR goes through.
* :mod:`repro.crypto.wegman_carter` — Wegman-Carter authentication tags built
  from Toeplitz universal hashing and one-time-pad masking.
"""

from repro.crypto.aes import AES
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_keystream,
    ctr_transform,
    ecb_decrypt,
    ecb_encrypt,
)
from repro.crypto.otp import OneTimePad, PadExhaustedError
from repro.crypto.sha1 import hmac_sha1, sha1
from repro.crypto.wegman_carter import WegmanCarterAuthenticator, AuthenticationError

__all__ = [
    "AES",
    "cbc_decrypt",
    "cbc_encrypt",
    "ctr_keystream",
    "ctr_transform",
    "ecb_decrypt",
    "ecb_encrypt",
    "OneTimePad",
    "PadExhaustedError",
    "hmac_sha1",
    "sha1",
    "WegmanCarterAuthenticator",
    "AuthenticationError",
]
