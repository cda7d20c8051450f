"""UTCQ core: representation, reference selection, compression, decoding."""

from .archive import (
    ComponentBits,
    CompressedArchive,
    CompressedInstance,
    CompressedTrajectory,
    CompressionParams,
    CompressionStats,
    CorruptPayloadError,
)
from .compressor import (
    DEFAULT_ETA_DISTANCE,
    DEFAULT_ETA_PROBABILITY,
    UTCQCompressor,
    compress_dataset,
)
from .decoder import (
    decode_archive,
    decode_times,
    decode_trajectory,
)
from .improved_ted import InstanceTuple, decode_instance, encode_instance
from .refselect import ReferenceSelection, select_references

__all__ = [
    "ComponentBits",
    "CompressedArchive",
    "CompressedInstance",
    "CompressedTrajectory",
    "CompressionParams",
    "CompressionStats",
    "CorruptPayloadError",
    "DEFAULT_ETA_DISTANCE",
    "DEFAULT_ETA_PROBABILITY",
    "UTCQCompressor",
    "compress_dataset",
    "decode_archive",
    "decode_times",
    "decode_trajectory",
    "InstanceTuple",
    "decode_instance",
    "encode_instance",
    "ReferenceSelection",
    "select_references",
]
