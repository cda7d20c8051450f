"""CLI tests: every documented subcommand runs and answers correctly."""

import json
import shutil

import pytest

from repro import StIUIndex, UTCQQueryProcessor
from repro.cli import main
from repro.core import compress_dataset
from repro.io import FileBackedArchive
from repro.trajectories.datasets import CD, load_dataset

PROFILE_ARGS = [
    "--profile", "CD", "--count", "15", "--dataset-seed", "21",
    "--network-scale", "12",
]


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cd.utcq"
    code = main(["compress", str(path), *PROFILE_ARGS, "--quiet"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def reference_setup():
    network, trajectories = load_dataset("CD", 15, seed=21, network_scale=12)
    archive = compress_dataset(
        network, trajectories, default_interval=CD.default_interval
    )
    index = StIUIndex(network, archive)
    return network, trajectories, UTCQQueryProcessor(network, archive, index)


def test_compress_parallel_matches_serial_file(archive_path, tmp_path):
    parallel = tmp_path / "parallel.utcq"
    code = main(
        ["compress", str(parallel), *PROFILE_ARGS, "--workers", "2", "--quiet"]
    )
    assert code == 0
    assert parallel.read_bytes() == archive_path.read_bytes()


def test_compress_records_provenance(archive_path):
    with FileBackedArchive.open(archive_path) as archive:
        provenance = archive.provenance
    assert provenance["profile"] == "CD"
    assert provenance["dataset_seed"] == "21"
    assert provenance["network_scale"] == "12"


def test_info(archive_path, capsys):
    assert main(["info", str(archive_path), "--check"]) == 0
    out = capsys.readouterr().out
    assert "format v4" in out
    assert "trajectories 15" in out
    assert "CRCs OK" in out
    # Table 8 as `ls -l` shows it: archive + sidecar over the raw bytes
    sidecar_bytes = archive_path.with_name("cd.utcq.stiu").stat().st_size
    stored = archive_path.stat().st_size + sidecar_bytes
    assert f"stored: {stored} bytes" in out
    assert f"sidecar {sidecar_bytes})" in out


def test_info_json(archive_path, capsys):
    assert main(["info", str(archive_path), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["trajectory_count"] == 15
    assert document["format_version"] == 4
    assert document["ratios"]["Total"] > 1.0
    assert document["provenance"]["profile"] == "CD"
    sidecar_bytes = archive_path.with_name("cd.utcq.stiu").stat().st_size
    assert document["stored_bytes"] == document["file_bytes"] + sidecar_bytes
    assert document["stored_bytes_per_raw_byte"] == pytest.approx(
        document["stored_bytes"] / (document["original_bits"] / 8)
    )


def test_info_counts_only_the_archive_without_a_sidecar(
    archive_path, tmp_path, capsys
):
    path = tmp_path / "bare.utcq"
    shutil.copyfile(archive_path, path)  # the archive, not its sidecar
    assert main(["info", str(path), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["stored_bytes"] == document["file_bytes"]


def test_info_rejects_non_archive(tmp_path):
    bogus = tmp_path / "bogus.utcq"
    bogus.write_bytes(b"not an archive at all")
    with pytest.raises(SystemExit):
        main(["info", str(bogus)])


def test_query_where_matches_in_memory(
    archive_path, reference_setup, capsys
):
    _, trajectories, processor = reference_setup
    target = trajectories[0]
    t = (target.start_time + target.end_time) // 2
    expected = processor.where(target.trajectory_id, t, alpha=0.1)
    assert expected, "reference where query returned nothing"
    code = main(
        [
            "query", "where", str(archive_path),
            "--trajectory", str(target.trajectory_id),
            "--time", str(t), "--alpha", "0.1", "--json",
        ]
    )
    assert code == 0
    results = json.loads(capsys.readouterr().out)
    assert results == [
        {
            "instance": r.instance_index,
            "edge": list(r.edge),
            "ndist": r.ndist,
            "probability": r.probability,
        }
        for r in expected
    ]


def test_query_when_matches_in_memory(archive_path, reference_setup, capsys):
    _, trajectories, processor = reference_setup
    target = trajectories[0]
    t = (target.start_time + target.end_time) // 2
    located = processor.where(target.trajectory_id, t, alpha=0.1)
    edge = located[0].edge
    expected = processor.when(target.trajectory_id, edge, 0.5, alpha=0.1)
    code = main(
        [
            "query", "when", str(archive_path),
            "--trajectory", str(target.trajectory_id),
            "--edge", f"{edge[0]},{edge[1]}",
            "--rd", "0.5", "--alpha", "0.1", "--json",
        ]
    )
    assert code == 0
    results = json.loads(capsys.readouterr().out)
    assert results == [
        {
            "instance": r.instance_index,
            "time": r.time,
            "probability": r.probability,
        }
        for r in expected
    ]


def test_query_range(archive_path, reference_setup, capsys):
    network, trajectories, processor = reference_setup
    from repro.network.grid import Rect

    box = network.bounding_box()
    t = trajectories[0].times[1]
    expected = processor.range(
        Rect(box.min_x, box.min_y, box.max_x, box.max_y), t, alpha=0.2
    )
    code = main(
        [
            "query", "range", str(archive_path),
            f"--rect={box.min_x},{box.min_y},{box.max_x},{box.max_y}",
            "--time", str(t), "--alpha", "0.2", "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out) == expected


# trajectory 0 of the archive lives from t=17413 to t=17662
SINGLE_QUERIES = [
    (
        ["where", "--trajectory", "0", "--time", "17486", "--alpha", "0.1"],
        {"kind": "where", "trajectory": 0, "time": 17486, "alpha": 0.1},
    ),
    (
        ["when", "--trajectory", "0", "--edge", "105,93", "--rd", "0.5",
         "--alpha", "0.1"],
        {"kind": "when", "trajectory": 0, "edge": [105, 93], "rd": 0.5,
         "alpha": 0.1},
    ),
    (
        ["range", "--rect=0,0,2000,2000", "--time", "17486", "--alpha", "0.2"],
        {"kind": "range", "rect": [0, 0, 2000, 2000], "time": 17486,
         "alpha": 0.2},
    ),
]


def test_single_query_json_is_its_batch_line(archive_path, tmp_path, capsys):
    """``query where|when|range --json`` prints exactly the line ``query
    batch --json`` prints for the same spec."""
    batch = tmp_path / "batch.jsonl"
    batch.write_text(
        "".join(json.dumps(document) + "\n" for _, document in SINGLE_QUERIES)
    )
    assert main(
        ["query", "batch", str(archive_path), "-i", str(batch), "--json"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SINGLE_QUERIES)
    for (argv, _), line in zip(SINGLE_QUERIES, lines):
        assert json.loads(line), argv  # every spec has an answer
        kind, *options = argv
        assert main(
            ["query", kind, str(archive_path), *options, "--json"]
        ) == 0
        assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["where", "--trajectory", "0", "--time", "17486", "--alpha", "0.1"],
            [
                "instance 0: edge 105 -> 93 at 42.3 m (p=0.391)",
                "instance 1: edge 105 -> 93 at 42.3 m (p=0.383)",
                "instance 2: edge 105 -> 93 at 42.3 m (p=0.227)",
            ],
        ),
        (
            ["where", "--trajectory", "0", "--time", "0"],
            ["no instance qualifies"],
        ),
        (
            ["when", "--trajectory", "0", "--edge", "105,93", "--rd", "0.5",
             "--alpha", "0.1"],
            [
                "instance 0: t=17491.8s (p=0.391)",
                "instance 1: t=17492.3s (p=0.383)",
                "instance 2: t=17491.8s (p=0.227)",
            ],
        ),
        (
            ["when", "--trajectory", "0", "--edge", "0,1"],
            ["no passing time qualifies"],
        ),
        (
            ["range", "--rect=0,0,2000,2000", "--time", "17486",
             "--alpha", "0.2"],
            ["trajectory 0"],
        ),
        (
            ["range", "--rect=-5,-5,-1,-1", "--time", "17486"],
            ["no trajectory qualifies"],
        ),
    ],
)
def test_single_query_text_output(archive_path, capsys, argv, expected):
    kind, *options = argv
    assert main(["query", kind, str(archive_path), *options]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def test_decompress(archive_path, reference_setup, capsys):
    _, trajectories, _ = reference_setup
    code = main(["decompress", str(archive_path), "--limit", "2"])
    assert code == 0
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line.strip()
    ]
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["trajectory_id"] == trajectories[0].trajectory_id
    assert first["times"] == list(trajectories[0].times)
    assert len(first["instances"]) == trajectories[0].instance_count
    # paths are lossless through compress -> save -> load -> decode
    assert first["instances"][0]["path"] == [
        list(edge) for edge in trajectories[0].instances[0].path
    ]


def test_decompress_to_file(archive_path, tmp_path):
    out = tmp_path / "decoded.jsonl"
    code = main(
        ["decompress", str(archive_path), "-o", str(out), "--limit", "3"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    json.loads(lines[0])


def test_query_without_provenance_requires_flags(
    reference_setup, tmp_path, capsys
):
    network, trajectories, processor = reference_setup
    archive = processor.archive
    bare = tmp_path / "bare.utcq"
    archive.save(bare)  # no provenance recorded
    target = trajectories[0]
    t = (target.start_time + target.end_time) // 2
    with pytest.raises(SystemExit, match="provenance"):
        main(
            [
                "query", "where", str(bare),
                "--trajectory", str(target.trajectory_id),
                "--time", str(t),
            ]
        )
    # explicit dataset flags substitute for provenance
    code = main(
        [
            "query", "where", str(bare),
            "--trajectory", str(target.trajectory_id),
            "--time", str(t), "--alpha", "0.1",
            "--profile", "CD", "--dataset-seed", "21",
            "--network-scale", "12", "--json",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_version_reports_package_version(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


# ----------------------------------------------------------------------
# streaming subcommands
# ----------------------------------------------------------------------
STREAM_ARGS = [
    "--profile", "CD", "--count", "6", "--dataset-seed", "21",
    "--network-scale", "12", "--segment-size", "2",
]


@pytest.fixture(scope="module")
def stream_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stream-cli") / "fleet"
    code = main(["stream", "replay", str(directory), *STREAM_ARGS, "--quiet"])
    assert code == 0
    return directory


def test_stream_replay_reports_throughput(tmp_path, capsys):
    directory = tmp_path / "fleet"
    code = main(
        ["stream", "replay", str(directory), "--profile", "CD",
         "--count", "3", "--dataset-seed", "5", "--network-scale", "12"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "points/sec sustained" in out
    assert "sealed" in out


def test_stream_stats_json(stream_directory, capsys):
    assert main(["stream", "stats", str(stream_directory), "--json"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["format"] == "utcq-stream-manifest"
    assert manifest["trajectory_count"] > 0
    assert len(manifest["segments"]) >= 2
    assert manifest["provenance"]["profile"] == "CD"


def test_stream_stats_text(stream_directory, capsys):
    assert main(["stream", "stats", str(stream_directory)]) == 0
    out = capsys.readouterr().out
    assert "stream archive" in out
    assert "seg-00000.utcq" in out


def test_stream_stats_rejects_missing_directory(tmp_path):
    with pytest.raises(SystemExit, match="no stream archive"):
        main(["stream", "stats", str(tmp_path / "nope")])


@pytest.mark.parametrize("action", ["stats", "compact"])
def test_stream_commands_refuse_a_manifest_without_segments(
    stream_directory, tmp_path, capsys, action
):
    """A manifest whose "segments" key is misspelled is one clean error
    line and exit 2, not a KeyError traceback."""
    directory = tmp_path / "fleet"
    shutil.copytree(stream_directory, directory)
    manifest = directory / "manifest.json"
    manifest.write_text(
        manifest.read_text().replace('"segments"', '"segmints"')
    )
    with pytest.raises(SystemExit) as raised:
        main(["stream", action, str(directory)])
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "'segments' is missing" in err


def test_stream_compact_stdout_of_both_forms(tmp_path, capsys):
    """In place, then canonical: both forms print exactly these lines,
    and the sidecar path printed is the one the writer wrote."""
    directory = tmp_path / "fleet"
    output = tmp_path / "fleet.utcq"
    assert main(
        ["stream", "replay", str(directory), *STREAM_ARGS, "--quiet"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["stream", "compact", str(directory), "--min-merge", "2"]
    ) == 0
    assert capsys.readouterr().out == (
        "size-tiered(min=2, max=8, ratio=4): 1 merge(s), 3 segments in, "
        "3 -> 1 segments, 1805 bytes read / 1313 written (generation 5)\n"
    )
    assert main(["stream", "compact", str(directory), str(output)]) == 0
    assert capsys.readouterr().out == (
        f"compacted 6 trajectories from 1 segments (1313 bytes) into "
        f"{output} (1340 bytes)\n"
        f"wrote {output}.stiu: StIU index sidecar (temporal layer; "
        f"spatial rows derived on first use)\n"
    )
    assert output.stat().st_size == 1340
    assert output.with_name(output.name + ".stiu").exists()


def test_stream_compact_then_query(stream_directory, tmp_path, capsys):
    output = tmp_path / "fleet.utcq"
    assert main(
        ["stream", "compact", str(stream_directory), str(output)]
    ) == 0
    assert "compacted" in capsys.readouterr().out
    assert main(["info", str(output), "--check", "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["crc_checked"] is True
    assert document["provenance"]["generator"] == "repro.stream.replay"

    # the compacted archive answers queries via its recorded provenance
    with FileBackedArchive.open(output) as archive:
        trajectory_id = archive.trajectory_ids()[0]
        trajectory = archive.trajectory(trajectory_id)
        t = (trajectory.start_time + trajectory.end_time) // 2
    code = main(
        ["query", "where", str(output),
         "--trajectory", str(trajectory_id), "--time", str(t),
         "--alpha", "0.1", "--json"]
    )
    assert code == 0
    json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------------
# operator errors: one line on stderr, exit status 2
# ----------------------------------------------------------------------
class TestCliErrorContract:
    """``query``/``stream``/``serve-bench`` failures are typed: exit
    status 2 with a single ``error: ...`` line, never a traceback."""

    def assert_clean_failure(self, excinfo, capsys):
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        return lines[0]

    def test_query_missing_archive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "where", "/no/such/archive.utcq",
                "--trajectory", "1", "--time", "0",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "no such archive" in message

    def test_query_batch_bad_json(self, archive_path, tmp_path, capsys):
        bad = tmp_path / "queries.jsonl"
        bad.write_text("this is not json\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "batch", str(archive_path), "-i", str(bad)])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "bad query JSON" in message

    def test_query_corrupt_archive(self, archive_path, tmp_path, capsys):
        data = bytearray(archive_path.read_bytes())
        data[0] ^= 0xFF
        bad = tmp_path / "corrupt.utcq"
        bad.write_bytes(bytes(data))
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "where", str(bad),
                "--trajectory", "1", "--time", "0",
            ])
        self.assert_clean_failure(excinfo, capsys)

    @pytest.mark.parametrize("edge", ["999999,999998", "1,1"])
    def test_query_when_on_an_edge_not_in_the_network(
        self, archive_path, edge, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "when", str(archive_path),
                "--trajectory", "0", "--edge", edge, "--rd", "0.5",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert f"no edge {edge.replace(',', ' -> ')} " in message

    @pytest.mark.parametrize("rd", ["1.5", "-0.5"])
    def test_query_when_off_the_edge(self, archive_path, rd, capsys):
        """A relative distance past either end of a real path edge of
        trajectory 0 is refused, not answered with a time spent on a
        neighbouring edge."""
        assert main(["decompress", str(archive_path), "--limit", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        edge = record["instances"][0]["path"][0]
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "when", str(archive_path), "--trajectory", "0",
                "--edge", f"{edge[0]},{edge[1]}", f"--rd={rd}",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "relative_distance must be in [0, 1]" in message

    @pytest.fixture
    def damaged(self, archive_path, tmp_path):
        """A copy of the archive, without its sidecar, with one byte
        flipped inside the record of trajectory 0."""
        from repro.io.format import read_header

        with open(archive_path, "rb") as stream:
            entry = read_header(stream).directory[0]
        assert entry.trajectory_id == 0
        data = bytearray(archive_path.read_bytes())
        data[entry.offset + entry.length // 2] ^= 0xFF
        path = tmp_path / "damaged.utcq"
        path.write_bytes(bytes(data))
        return path

    @pytest.fixture
    def foreign(self, tmp_path):
        path = tmp_path / "foreign.utcq"
        path.write_bytes(b"not an archive at all")
        return path

    @pytest.fixture
    def batch_input(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"kind": "where", "trajectory": 0, "time": 17486}\n')
        return path

    def test_query_where_on_a_damaged_record(self, damaged, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "where", str(damaged),
                "--trajectory", "0", "--time", "17486",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "CRC mismatch for trajectory 0" in message

    def test_query_batch_on_a_damaged_record(
        self, damaged, batch_input, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "batch", str(damaged), "-i", str(batch_input)])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "CRC mismatch for trajectory 0" in message

    def test_decompress_a_damaged_record(self, damaged, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompress", str(damaged)])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "CRC mismatch for trajectory 0" in message

    @pytest.fixture
    def undecodable(self, archive_path, tmp_path):
        """A copy of the archive whose record CRCs are all valid but
        whose trajectory-0 payload has one bit flipped: the first flip,
        in bit order, that the decoder cannot get through, past the
        probability code the payload opens with (the writer refuses a
        code that disagrees with the record's probability)."""
        from repro.bits import BitReader
        from repro.core import CorruptPayloadError, decode_trajectory
        from repro.core.decoder import read_probability
        from repro.io.format import read_archive, read_header, write_archive

        with open(archive_path, "rb") as stream:
            provenance = read_header(stream).provenance
        archive = read_archive(archive_path)
        network = load_dataset("CD", 1, seed=21, network_scale=12)[0]
        trajectory = archive.trajectories[0]
        assert trajectory.trajectory_id == 0
        instance = trajectory.instances[0]
        original = instance.payload
        reader = BitReader(original, instance.payload_bits)
        read_probability(reader, archive.params.eta_probability)
        for bit in range(reader.position, instance.payload_bits):
            data = bytearray(original)
            data[bit >> 3] ^= 0x80 >> (bit & 7)
            instance.payload = bytes(data)
            try:
                decode_trajectory(network, trajectory, archive.params)
            except (CorruptPayloadError, EOFError, KeyError, IndexError):
                break
        else:
            pytest.fail("no single bit flip made the payload undecodable")
        path = tmp_path / "undecodable.utcq"
        write_archive(archive, path, provenance=provenance)
        return path

    def test_info_checks_the_undecodable_archive_clean(self, undecodable, capsys):
        assert main(["info", str(undecodable), "--check"]) == 0
        assert "CRCs OK" in capsys.readouterr().out

    def test_decompress_an_undecodable_payload(self, undecodable, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decompress", str(undecodable)])
        message = self.assert_clean_failure(excinfo, capsys)
        assert message.startswith(f"error: {undecodable}: trajectory 0: ")

    def test_query_where_on_an_undecodable_payload(self, undecodable, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "where", str(undecodable),
                "--trajectory", "0", "--time", "17486",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "undecodable payload" in message

    def test_query_range_on_an_undecodable_payload(self, undecodable, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "range", str(undecodable),
                "--rect=0,0,5000,5000", "--time", "17486",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "undecodable payload" in message

    def test_query_batch_with_a_foreign_second_shard(
        self, archive_path, foreign, batch_input, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "query", "batch", str(archive_path), str(foreign),
                "-i", str(batch_input),
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "bad magic" in message
        assert str(foreign) in message

    def test_serve_with_a_foreign_second_shard(
        self, archive_path, foreign, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", str(archive_path), str(foreign),
                "--port", "0", "--workers", "1",
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "bad magic" in message
        assert str(foreign) in message

    def test_stream_missing_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "stats", str(tmp_path / "nowhere")])
        message = self.assert_clean_failure(excinfo, capsys)
        assert excinfo.value.code == 2

    def test_serve_bench_rejects_bad_duration(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "--duration", "0",
                "-o", str(tmp_path / "out.json"),
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "duration" in message

    def test_serve_bench_unwritable_output(self, tmp_path, capsys, monkeypatch):
        # the bench itself is expensive; patch it out and fail the write
        monkeypatch.setattr(
            "repro.workloads.query_bench.run_chaos_bench",
            lambda **kwargs: ([], {}),
        )
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve-bench", "--quick",
                "-o", str(tmp_path / "no" / "such" / "dir" / "out.json"),
            ])
        message = self.assert_clean_failure(excinfo, capsys)
        assert "cannot write" in message
