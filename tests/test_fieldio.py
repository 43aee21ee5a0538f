import struct

import numpy as np

from carleman.evolution import EvolutionConfig, evolve, make_decaying_datum
from carleman.fieldio import read_field, read_trajectory, write_field, write_trajectory
from carleman.lattice import LatticeWindow, Potential


def test_write_read_trajectory_round_trip(tmp_path):
    window = LatticeWindow(2, 6)
    cfg = EvolutionConfig(dt=1e-2, T=0.1, window=window,
                          potential=Potential.alternating(window), store_every=3)
    traj = evolve(make_decaying_datum(window, ("bessel_like", 1.0)), cfg).scaled(0.5)
    written = write_trajectory(tmp_path, traj)
    assert len(written) == 2 * traj.n_stored + 1
    times, values, win, manifest = read_trajectory(tmp_path)
    assert win == window
    assert np.array_equal(times, traj.times)
    assert values.shape == traj.values.shape
    assert np.array_equal(values, traj.values)
    assert manifest["dt"] == cfg.dt and manifest["T"] == cfg.T
    assert manifest["store_every"] == cfg.store_every
    assert manifest["potential_sha256"] == cfg.potential_hash()
    assert manifest["scale_log"] == traj.scale_log
    assert manifest["scheme"] == "trapezoidal_unitary"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
    assert (tmp_path / "trajectory_manifest.json").exists()


def test_write_field_bytes_are_the_header_then_the_values(tmp_path):
    # the values go out as their own buffer, byte for byte what
    # values.tobytes() gives, after the 20-byte header; real and
    # non-contiguous input is converted to little-endian complex pairs first
    window = LatticeWindow(2, 3)
    rng = np.random.default_rng(0)
    shape = (2,) + window.shape
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    header = b"CARL" + struct.pack("<IIII", 1, 2, 3, 2)
    write_field(tmp_path / "stack.bin", values, window, n_time=2)
    assert (tmp_path / "stack.bin").read_bytes() == header + values.tobytes()
    one = values[1].T.real  # real, and not C-contiguous
    write_field(tmp_path / "one.bin", one, window)
    as_pairs = np.ascontiguousarray(one, dtype="<c16")
    assert (tmp_path / "one.bin").read_bytes() == (
        b"CARL" + struct.pack("<IIII", 1, 2, 3, 1) + as_pairs.tobytes())
    assert np.array_equal(read_field(tmp_path / "one.bin")[0], one)
