"""Stateful property test of :class:`repro.core.keypool.KeyPool`.

Hypothesis drives random interleavings of the pool's four mutators --
``add_block``, ``draw_bits``, ``drop_head_blocks`` and
``expire_older_than`` -- through exhaustion and partially consumed head
blocks, against a plain list-of-bits model.  After every step the pool's
running ``available_bits`` must equal a fresh re-sum of its blocks, and every
bit ever added must be accounted exactly once: consumed, expired or still
available.
"""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.keypool import KeyBlock, KeyPool, KeyPoolExhaustedError
from repro.util.bits import BitString
from repro.util.rng import DeterministicRNG


class KeyPoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = KeyPool(name="machine")
        #: Model: one ``(bits, created_at)`` per block, head first, plus the
        #: number of bits already drawn from the head block.
        self.model = []
        self.head_offset = 0
        self.next_block_id = 0

    def _model_available(self):
        return sum(len(bits) for bits, _ in self.model) - self.head_offset

    @rule(
        length=st.integers(min_value=0, max_value=80),
        seed=st.integers(min_value=0, max_value=2**16),
        created_at=st.integers(min_value=0, max_value=20),
    )
    def add_block(self, length, seed, created_at):
        bits = BitString.random(length, DeterministicRNG(seed))
        self.pool.add_block(KeyBlock(bits, self.next_block_id, created_at=float(created_at)))
        self.next_block_id += 1
        self.model.append((bits.to_list(), created_at))

    def _model_draw(self, count):
        drawn = []
        while len(drawn) < count:
            bits, _ = self.model[0]
            take = min(count - len(drawn), len(bits) - self.head_offset)
            drawn.extend(bits[self.head_offset : self.head_offset + take])
            self.head_offset += take
            if self.head_offset == len(bits):
                self.model.pop(0)
                self.head_offset = 0
        return drawn

    @rule(data=st.data())
    def draw_within(self, data):
        count = data.draw(st.integers(min_value=0, max_value=self._model_available()))
        assert self.pool.draw_bits(count).to_list() == self._model_draw(count)

    @precondition(lambda self: self._model_available() > 0)
    @rule()
    def draw_to_exhaustion(self):
        count = self._model_available()
        assert self.pool.draw_bits(count).to_list() == self._model_draw(count)
        assert self.pool.available_bits == 0

    @rule(excess=st.integers(min_value=1, max_value=50))
    def draw_too_many(self, excess):
        before = (self.pool.available_bits, self.pool.bits_consumed, len(self.pool.blocks))
        with pytest.raises(KeyPoolExhaustedError):
            self.pool.draw_bits(self._model_available() + excess)
        after = (self.pool.available_bits, self.pool.bits_consumed, len(self.pool.blocks))
        assert after == before

    @rule(count=st.integers(min_value=0, max_value=4))
    def drop_head_blocks(self, count):
        expected = 0
        for _ in range(min(count, len(self.model))):
            bits, _ = self.model.pop(0)
            expected += len(bits) - self.head_offset
            self.head_offset = 0
        assert self.pool.drop_head_blocks(count) == expected

    @rule(cutoff=st.integers(min_value=0, max_value=21))
    def expire_older_than(self, cutoff):
        expected = 0
        while self.model and self.model[0][1] < cutoff:
            bits, _ = self.model.pop(0)
            expected += len(bits) - self.head_offset
            self.head_offset = 0
        assert self.pool.expire_older_than(float(cutoff)) == expected

    @invariant()
    def available_bits_matches_a_fresh_sum(self):
        pool = self.pool
        assert pool.available_bits == sum(len(b) for b in pool.blocks) - pool._head_offset
        assert pool.available_bits == self._model_available()
        assert pool._head_offset == self.head_offset

    @invariant()
    def every_added_bit_is_accounted_once(self):
        pool = self.pool
        assert pool.bits_added == pool.bits_consumed + pool.bits_expired + pool.available_bits


KeyPoolMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestKeyPoolStateMachine = KeyPoolMachine.TestCase


@given(
    lengths=st.lists(st.integers(min_value=0, max_value=64), max_size=6),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_pool_built_with_blocks_counts_them(lengths, data):
    """A pool constructed with ``blocks=`` (and a consumed head) starts level-exact."""
    blocks = [
        KeyBlock(BitString.random(length, DeterministicRNG(i)), i)
        for i, length in enumerate(lengths)
    ]
    head_offset = data.draw(st.integers(min_value=0, max_value=len(blocks[0]))) if blocks else 0
    pool = KeyPool(blocks=list(blocks), _head_offset=head_offset)
    assert pool.available_bits == sum(lengths) - head_offset
    pool.add_bits(BitString.ones(8))
    assert pool.available_bits == sum(lengths) - head_offset + 8
