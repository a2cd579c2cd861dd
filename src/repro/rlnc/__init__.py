"""Randomized linear network coding (RLNC) codec.

This package reimplements the coding layer the paper builds on Kodo:

- :mod:`repro.rlnc.header` — the NC wire header carried between UDP and
  the application layer (session id, generation id, coefficient vector;
  8 bytes + one byte per block for GF(2^8), i.e. 12 bytes at the paper's
  default of 4 blocks per generation).
- :mod:`repro.rlnc.generation` — segmentation of application data into
  generations of fixed-size blocks and reassembly on decode.
- :mod:`repro.rlnc.encoder` — source encoder: systematic and dense coded
  packets with configurable per-generation redundancy (the paper's
  NC0/NC1/NC2 settings).
- :mod:`repro.rlnc.recoder` — in-network recoder used by relay VNFs:
  pipelined, it can emit a fresh combination after every received packet
  without decoding first.
- :mod:`repro.rlnc.decoder` — progressive Gaussian-elimination decoder.

Coding is per-generation: an encoded block is a linear combination of
the blocks of one generation only, with coefficients drawn uniformly at
random from GF(2^8) (Ho et al.'s randomized network coding).
"""

from repro.rlnc.decoder import Decoder
from repro.rlnc.encoder import Encoder
from repro.rlnc.generation import Generation, reassemble, segment
from repro.rlnc.header import NCHeader
from repro.rlnc.packet import CodedPacket, MalformedPacketError
from repro.rlnc.recoder import Recoder
from repro.rlnc.redundancy import RedundancyPolicy

__all__ = [
    "NCHeader",
    "CodedPacket",
    "MalformedPacketError",
    "Generation",
    "segment",
    "reassemble",
    "Encoder",
    "Recoder",
    "Decoder",
    "RedundancyPolicy",
]
