"""Classical <-> quantum data conversion (Section II-A of the paper).

- :mod:`~repro.encoding.amplitude` implements the amplitude-encoding map of
  Eq. (1) and the decoding map of Eq. (2), including the per-sample norm
  bookkeeping (``sum_j x_j^2``) that the paper retains as classical side
  information;
- :mod:`~repro.encoding.images` implements image flattening and the pixel
  threshold rule used to post-process reconstructed images in Section IV-B.
"""

from repro.encoding.amplitude import (
    AmplitudeCodec,
    EncodedBatch,
    encode_batch,
    decode_batch,
)
from repro.encoding.images import (
    flatten_images,
    unflatten_images,
    apply_paper_threshold,
)

__all__ = [
    "AmplitudeCodec",
    "EncodedBatch",
    "encode_batch",
    "decode_batch",
    "flatten_images",
    "unflatten_images",
    "apply_paper_threshold",
]
