"""Seeded draws that keep each run's input mix fixed."""

from __future__ import annotations

import random


class Deck:
    """Deals items in shuffled passes: every item once per pass.

    Workload generators draw cost-setting choices (shape size, shell,
    query kind) from decks rather than independently, so a run of any
    length holds each of them about equally often and the spread between
    seeds comes from the inputs' details, not from the mix.
    """

    def __init__(self, rng: random.Random, items):
        self._rng = rng
        self._items = list(items)
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = self._items[:]
            self._rng.shuffle(self._left)
        return self._left.pop()
