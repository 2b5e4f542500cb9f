"""Brick/pallet dataflow geometry shared by the accelerator models.

Terminology (from the PRA paper, used throughout Diffy):

* **brick**: 16 activations consecutive along the channel dimension,
  ``a(c..c+15, y, x)`` — the unit VAA processes per cycle and the unit
  dynamic precisions are grouped by.
* **pallet**: 16 bricks from 16 consecutive windows along the row,
  ``a^B(c, y, x) .. a^B(c, y, x+15)`` — the unit PRA/Diffy process
  concurrently across their 16 SIP columns.
"""

from __future__ import annotations

#: Activations per brick (channel-direction vector width).
BRICK_SIZE = 16

#: Windows per pallet (SIP columns per tile).
PALLET_SIZE = 16

