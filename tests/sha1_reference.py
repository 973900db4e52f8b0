"""From-scratch SHA-1, HMAC-SHA1 and ``prf+`` (FIPS-180 / RFC 2104): the oracle.

:mod:`repro.crypto.sha1` takes its hash and HMAC from the standard library.
This module keeps an independent implementation written straight from the
specifications, so the differential tests can check that the library's
primitives -- and ``prf_expand`` built on top of them -- are byte-identical
to the algorithms the paper's IPsec stack names.
"""

from __future__ import annotations

import struct

SHA1_BLOCK_SIZE = 64


def _left_rotate(value: int, amount: int) -> int:
    value &= 0xFFFFFFFF
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def sha1(message: bytes) -> bytes:
    """Compute the 20-byte SHA-1 digest of ``message``."""
    h0, h1, h2, h3, h4 = (
        0x67452301,
        0xEFCDAB89,
        0x98BADCFE,
        0x10325476,
        0xC3D2E1F0,
    )

    original_bit_length = len(message) * 8
    message = bytes(message) + b"\x80"
    while len(message) % 64 != 56:
        message += b"\x00"
    message += struct.pack(">Q", original_bit_length)

    for chunk_start in range(0, len(message), 64):
        chunk = message[chunk_start : chunk_start + 64]
        words = list(struct.unpack(">16I", chunk))
        for i in range(16, 80):
            words.append(
                _left_rotate(words[i - 3] ^ words[i - 8] ^ words[i - 14] ^ words[i - 16], 1)
            )

        a, b, c, d, e = h0, h1, h2, h3, h4
        for i in range(80):
            if i < 20:
                f = (b & c) | ((~b) & d)
                k = 0x5A827999
            elif i < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif i < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_left_rotate(a, 5) + f + e + k + words[i]) & 0xFFFFFFFF
            e = d
            d = c
            c = _left_rotate(b, 30)
            b = a
            a = temp

        h0 = (h0 + a) & 0xFFFFFFFF
        h1 = (h1 + b) & 0xFFFFFFFF
        h2 = (h2 + c) & 0xFFFFFFFF
        h3 = (h3 + d) & 0xFFFFFFFF
        h4 = (h4 + e) & 0xFFFFFFFF

    return struct.pack(">5I", h0, h1, h2, h3, h4)


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA1 per RFC 2104."""
    if len(key) > SHA1_BLOCK_SIZE:
        key = sha1(key)
    key = key + b"\x00" * (SHA1_BLOCK_SIZE - len(key))
    outer = bytes(b ^ 0x5C for b in key)
    inner = bytes(b ^ 0x36 for b in key)
    return sha1(outer + sha1(inner + message))


def prf_expand(key: bytes, seed: bytes, length: int) -> bytes:
    """IKE-style ``prf+``: T1 = prf(K, seed | 1), T2 = prf(K, T1 | seed | 2), ..."""
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
