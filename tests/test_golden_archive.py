"""Golden-archive regression: the compressed bytes are pinned.

Every layer of the compressor is deterministic (seeded pivot RNG,
tie-broken factorizations, exact greedy searches), so compressing the
bundled example dataset must produce the same ``.utcq`` file forever.
Any optimization that changes even one bit — a different base set, a
different factor tie-break, a reordered stream — fails here loudly
instead of silently invalidating existing archives.

If a PR *intends* to change the format, it must bump the format version
and re-pin the hash in the same change.
"""

import hashlib

import pytest

from repro.core.compressor import UTCQCompressor
from repro.core.decoder import decode_archive
from repro.io.format import read_archive, write_archive
from repro.trajectories.datasets import load_dataset, profile

# SHA-256 of the archive produced by the settings below (format v4).
GOLDEN_SHA256 = "8394085f2f9b52d2e6bfa6d3bb10ed577659d44adb5efd7a1b9052a987c79a7e"

# SHA-256 of what decoding that archive returns (see ``decoded_digest``):
# the decoders must give back the same floats, not just floats within eta.
GOLDEN_DECODED_SHA256 = (
    "0675162e02a573720db4c817dac59a6550f680ecb2375b073af2ca4fb1d776df"
)

PROFILE = "CD"
TRAJECTORIES = 25
DATASET_SEED = 11
NETWORK_SCALE = 12
PROVENANCE = {
    "generator": "repro.load_dataset",
    "profile": PROFILE,
    "dataset_seed": str(DATASET_SEED),
    "network_scale": str(NETWORK_SCALE),
    "trajectory_count": str(TRAJECTORIES),
}


@pytest.fixture(scope="module")
def golden_setup():
    prof = profile(PROFILE)
    network, trajectories = load_dataset(
        PROFILE, TRAJECTORIES, seed=DATASET_SEED, network_scale=NETWORK_SCALE
    )
    compressor = UTCQCompressor(
        network=network,
        default_interval=prof.default_interval,
        eta_distance=1 / 128,
        eta_probability=prof.default_eta_probability,
        pivot_count=1,
        seed=17,
    )
    return network, trajectories, compressor.compress(trajectories)


def test_archive_bytes_are_pinned(golden_setup, tmp_path):
    _, _, archive = golden_setup
    path = tmp_path / "golden.utcq"
    write_archive(archive, path, provenance=PROVENANCE)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256, (
        f"compressed output changed: sha256 {digest} != pinned "
        f"{GOLDEN_SHA256}.  If the format change is intentional, bump the "
        "archive version and re-pin."
    )


def test_golden_archive_round_trips(golden_setup, tmp_path):
    network, trajectories, archive = golden_setup
    path = tmp_path / "golden.utcq"
    write_archive(archive, path, provenance=PROVENANCE)
    decoded = decode_archive(network, read_archive(path))
    assert len(decoded) == len(trajectories)
    for original, restored in zip(trajectories, decoded):
        assert restored.trajectory_id == original.trajectory_id
        assert list(restored.times) == list(original.times)
        assert len(restored.instances) == len(original.instances)
        for a, b in zip(original.instances, restored.instances):
            assert b.path == a.path


def decoded_digest(decoded) -> str:
    """SHA-256 over every id, time, probability, path edge, ``ndist`` and
    location edge index of a decoded archive, floats written as ``repr``."""
    digest = hashlib.sha256()
    for trajectory in decoded:
        digest.update(repr((trajectory.trajectory_id, list(trajectory.times))).encode())
        for instance in trajectory.instances:
            digest.update(repr((
                instance.probability,
                instance.path,
                [(location.edge, location.ndist) for location in instance.locations],
                instance.location_edge_indices,
            )).encode())
    return digest.hexdigest()


def test_decoded_output_is_pinned(golden_setup, tmp_path):
    network, _, archive = golden_setup
    path = tmp_path / "golden.utcq"
    write_archive(archive, path, provenance=PROVENANCE)
    digest = decoded_digest(decode_archive(network, read_archive(path)))
    assert digest == GOLDEN_DECODED_SHA256, (
        f"decoded output changed: sha256 {digest} != pinned "
        f"{GOLDEN_DECODED_SHA256}"
    )
