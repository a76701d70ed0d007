import math
from dataclasses import replace

import numpy as np
import pytest

from emberwatch.errors import DomainError
from emberwatch.fire import (
    DEFAULT_ELLIPSE,
    EllipseParams,
    FireFront,
    FireMap,
    WindFuelState,
    calibrate_spread_rate,
    front_velocity,
    keyed_normal,
    keyed_uniform,
    simulate_step,
    spawn_fronts,
    spread_coefficient,
    spread_velocity,
    substream_key,
)


def initial_fire_map(positions, wind_fuel, case, ids=None, **kwargs):
    """A map with fronts at the positions, ids 1..n unless given."""
    ids = range(1, len(positions) + 1) if ids is None else ids
    return FireMap((), wind_fuel, case, **kwargs).with_fronts(positions, ids)


def scalar_spread_oracle(rate, wind):
    # Standalone evaluation of the closed form, independent of fire.py.
    p = DEFAULT_ELLIPSE
    lb = p.a * math.exp(p.b * wind) + p.c * math.exp(-p.d * wind) + p.l
    gb = lb * lb - 1.0
    return rate * (1.0 - lb / (lb + math.sqrt(max(gb, 0.0))))


class TestSpreadCoefficient:
    def test_lb_equals_one_gives_zero(self):
        # constant LB == 1 regardless of wind
        params = EllipseParams(a=1.0, b=0.0, c=0.0, d=0.0, l=0.0)
        for rate in (0.0, 1.0, 7.5):
            assert spread_coefficient(rate, 3.0, params) == 0.0

    def test_defaults_zero_wind(self):
        # LB(0) = 0.936 + 0.461 - 0.397 = 1 exactly
        assert DEFAULT_ELLIPSE.length_to_breadth(0.0) == pytest.approx(1.0, abs=1e-15)
        assert spread_coefficient(2.0, 0.0, DEFAULT_ELLIPSE) == 0.0

    def test_matches_scalar_oracle(self):
        expected = scalar_spread_oracle(2.0, 5.0)
        assert spread_coefficient(2.0, 5.0, DEFAULT_ELLIPSE) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.9741828112110291, rel=1e-12)

    def test_bounded_by_rate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rate = float(rng.uniform(0, 5))
            wind = float(rng.uniform(0, 15))
            c = spread_coefficient(rate, wind, DEFAULT_ELLIPSE)
            assert 0.0 <= c <= rate + 1e-12

    def test_domain_error_below_one(self):
        params = EllipseParams(l=-0.5)  # LB(0) = 0.897
        with pytest.raises(DomainError):
            spread_coefficient(1.0, 0.0, params)
        with pytest.raises(DomainError):
            params.validate_range(5.0)

    def test_calibration_roundtrip(self):
        for speed in (0.0, 0.5, 1.0, 2.5):
            rate = calibrate_spread_rate(speed, 5.0, DEFAULT_ELLIPSE)
            assert spread_coefficient(rate, 5.0, DEFAULT_ELLIPSE) == pytest.approx(speed, abs=1e-12)

    def test_calibration_impossible_without_wind(self):
        with pytest.raises(DomainError):
            calibrate_spread_rate(1.0, 0.0, DEFAULT_ELLIPSE)


class TestFrontVelocity:
    def test_azimuth_zero_points_north(self):
        wf = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=0.0)
        v = front_velocity(wf, DEFAULT_ELLIPSE)
        c = spread_coefficient(2.0, 5.0, DEFAULT_ELLIPSE)
        assert v[0] == pytest.approx(0.0, abs=1e-15)
        assert v[1] == pytest.approx(c)

    def test_azimuth_quarter_points_east(self):
        wf = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=math.pi / 2)
        v = front_velocity(wf, DEFAULT_ELLIPSE)
        c = spread_coefficient(2.0, 5.0, DEFAULT_ELLIPSE)
        assert v[0] == pytest.approx(c)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_components_equal(self):
        wf = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=math.pi / 4)
        v = front_velocity(wf, DEFAULT_ELLIPSE)
        c = scalar_spread_oracle(2.0, 5.0)
        assert v[0] == pytest.approx(c / math.sqrt(2))
        assert v[1] == pytest.approx(c / math.sqrt(2))

    def test_magnitude_independent_of_azimuth(self):
        rng = np.random.default_rng(3)
        c = spread_coefficient(1.7, 4.0, DEFAULT_ELLIPSE)
        for theta in rng.uniform(0, 2 * math.pi, size=25):
            wf = WindFuelState(spread_rate=1.7, wind_speed=4.0, wind_azimuth=float(theta))
            assert np.linalg.norm(front_velocity(wf, DEFAULT_ELLIPSE)) == pytest.approx(c)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rate = float(rng.uniform(0.1, 3.0))
            wind = float(rng.uniform(0.5, 12.0))
            az = float(rng.uniform(0, 2 * math.pi))
            _, jac = spread_velocity(rate, wind, az, DEFAULT_ELLIPSE)
            h = 1e-6
            for col, (dr, du, da) in enumerate([(h, 0, 0), (0, h, 0), (0, 0, h)]):
                plus = front_velocity(
                    WindFuelState(rate + dr, wind + du, az + da), DEFAULT_ELLIPSE
                )
                minus = front_velocity(
                    WindFuelState(rate - dr, wind - du, az - da), DEFAULT_ELLIPSE
                )
                fd = (plus - minus) / (2 * h)
                assert np.allclose(jac[:, col], fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("wind", [1380.8, 1381.5, 1383.2])
    def test_wind_slope_is_flat_where_its_denominator_overflows(self, wind):
        # (LB + sqrt(LB^2 - 1))^2 passes the float range here; the velocity does not.
        velocity, jac = spread_velocity(0.3, wind, 0.7, DEFAULT_ELLIPSE)
        expected = front_velocity(WindFuelState(0.3, wind, 0.7), DEFAULT_ELLIPSE)
        assert velocity.tobytes() == expected.tobytes()
        assert np.isfinite(jac).all()
        assert (jac[:, 1] == 0.0).all()


MOTION, SPAWN = 6, 7  # the fire step's keyed-draw purposes


class TestPropagation:
    def _map(self, q=(0.0, 0.0), noise_std=0.0, wf=None):
        wf = wf or WindFuelState(spread_rate=0.0, wind_speed=5.0, wind_azimuth=0.0)
        front = FireFront(id=1, position=np.array(q))
        return FireMap((front,), wf, case=1 if wf.spread_rate == 0 else 2, noise_std=noise_std, rng_seed=42, step=3)

    def test_exact_euler_step(self):
        # spread velocity (1, 2) m/s: speed sqrt(5) at the azimuth atan2(1, 2) from north
        wf = WindFuelState(calibrate_spread_rate(math.sqrt(5.0), 5.0, DEFAULT_ELLIPSE), 5.0, math.atan2(1.0, 2.0))
        out = simulate_step(self._map(wf=wf), 0.5)
        assert out.fronts[0].position == pytest.approx([0.5, 1.0])
        assert np.array_equal(out.fronts[0].position, front_velocity(wf, DEFAULT_ELLIPSE) * 0.5)

    def test_stationary_without_noise(self):
        out = simulate_step(self._map(), 3.0)
        assert out.fronts[0].position == pytest.approx([0.0, 0.0])

    def test_noise_is_seed_deterministic(self):
        wf = WindFuelState(spread_rate=1.0, wind_speed=5.0, wind_azimuth=0.3)
        fmap = self._map(noise_std=0.1, wf=wf)
        outs = [simulate_step(fmap, 1.0).fronts[0].position for _ in range(2)]
        assert np.array_equal(outs[0], outs[1])
        reseeded = simulate_step(replace(fmap, rng_seed=43), 1.0).fronts[0].position
        assert not np.array_equal(reseeded, outs[0])

    def test_noise_is_the_keyed_motion_draw(self):
        wf = WindFuelState(spread_rate=1.0, wind_speed=5.0, wind_azimuth=0.3)
        fmap = self._map(noise_std=0.1, wf=wf)
        outs = [simulate_step(fmap, 1.0).fronts[0].position for _ in range(2)]
        euler = fmap.fronts[0].position + front_velocity(wf, DEFAULT_ELLIPSE) * 1.0
        assert np.array_equal(outs[0], euler + 0.1 * keyed_normal(42, (MOTION, 3), [1], 2)[0])

    def test_n_steps_exact_without_noise(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(0.5, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=0.7,
        )
        fmap = initial_fire_map([(10.0, 20.0)], wf, case=2, noise_std=0.0, rng_seed=1)
        v = front_velocity(wf, DEFAULT_ELLIPSE)
        for _ in range(20):
            fmap = simulate_step(fmap, 0.5)
        expected = np.array([10.0, 20.0]) + 20 * 0.5 * v
        assert fmap.fronts[0].position == pytest.approx(expected, abs=1e-9)


def spawn_draws(seed, n=7):
    return keyed_uniform(seed, (SPAWN, 0), [9], n)[0]


# The first child id of lineage 9, the parent's, as simulate_step places it.
BASE = 9 << 32


class TestSpawning:
    def _parent(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=math.pi / 4,
        )
        return FireFront(id=9, position=np.array([5.0, 5.0])), wf

    def test_zero_rate_spawns_nothing(self):
        parent, wf = self._parent()
        assert spawn_fronts(parent, 0, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), spawn_draws(0, 1), BASE) == []

    def test_count_bounded(self):
        parent, wf = self._parent()
        counts = set()
        for seed in range(200):
            kids = spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), spawn_draws(seed), BASE)
            counts.add(len(kids))
        assert counts == {0, 1, 2, 3}
        for first, count in ((0.0, 0), (0.2499, 0), (0.25, 1), (1.0 - 2.0**-53, 3)):
            draws = np.full(7, 0.5)
            draws[0] = first
            assert len(spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), draws, BASE)) == count

    def test_children_inside_growth_box(self):
        parent, wf = self._parent()
        half = np.abs(front_velocity(wf, DEFAULT_ELLIPSE)) * 1.0
        seen = 0
        for seed in range(1000):
            for kid in spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), spawn_draws(seed), BASE):
                seen += 1
                offset = kid.position - parent.position
                assert abs(offset[0]) <= half[0] + 1e-12
                assert abs(offset[1]) <= half[1] + 1e-12
        assert seen > 500  # the Monte Carlo actually exercised the box

    def test_child_ids_are_unique_and_disjoint(self):
        parent, wf = self._parent()
        draws = np.full(7, 0.5)
        draws[0] = 0.9  # three children
        kids = spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), draws, BASE)
        ids = [k.id for k in kids]
        assert len(ids) == 3 and len(set(ids)) == len(ids)
        assert all(i != parent.id and i >= (1 << 32) for i in ids)
        assert all(k.id >> 32 == parent.id for k in kids)  # each child's id names its lineage root


class TestSimulateStep:
    def test_case1_unchanged_without_noise(self):
        wf = WindFuelState(spread_rate=0.0, wind_speed=5.0, wind_azimuth=0.0)
        fmap = initial_fire_map([(1.0, 2.0), (3.0, 4.0)], wf, case=1, noise_std=0.0)
        stepped = simulate_step(fmap, 1.0)
        assert stepped.step == 1
        for before, after in zip(fmap.fronts, stepped.fronts):
            assert np.array_equal(before.position, after.position)

    def test_case2_count_constant(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(0.5, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=1.0,
        )
        fmap = initial_fire_map([(0.0, 0.0)] * 5, wf, case=2, noise_std=0.05, rng_seed=3)
        for _ in range(30):
            fmap = simulate_step(fmap, 1.0)
        assert len(fmap.fronts) == 5

    def test_case3_counting_bound(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=1.0,
        )
        fmap = initial_fire_map(
            [(0.0, 0.0), (50.0, 50.0)],
            wf,
            case=3,
            spawn_rate_max=3,
            spawn_interval=10,
            rng_seed=5,
            noise_std=0.0,
        )
        n0 = len(fmap.fronts)
        counts = [n0]
        for _ in range(100):
            fmap = simulate_step(fmap, 1.0)
            counts.append(len(fmap.fronts))
        assert all(a <= b for a, b in zip(counts, counts[1:]))  # non-decreasing
        assert n0 <= counts[-1] <= n0 * 4**10

    def test_case3_lineage_cap(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=1.0,
        )
        fmap = initial_fire_map(
            [(0.0, 0.0)], wf, case=3, spawn_rate_max=3, spawn_interval=5,
            rng_seed=5, max_per_lineage=6,
        )
        for _ in range(100):
            fmap = simulate_step(fmap, 1.0)
        assert len(fmap.fronts) <= 6

    def test_bit_identical_reruns(self):
        def run():
            wf = WindFuelState(
                spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
                wind_speed=5.0,
                wind_azimuth=1.0,
            )
            fmap = initial_fire_map(
                [(0.0, 0.0), (10.0, 10.0)],
                wf,
                case=3,
                spawn_rate_max=3,
                spawn_interval=7,
                rng_seed=77,
                noise_std=0.05,
            )
            for _ in range(40):
                fmap = simulate_step(fmap, 1.0)
            return fmap

        a, b = run(), run()
        assert len(a.fronts) == len(b.fronts)
        for fa, fb in zip(a.fronts, b.fronts):
            assert fa.id == fb.id
            assert np.array_equal(fa.position, fb.position)

    def test_front_stream_independent_of_other_fronts(self):
        # the same front draws the same noise no matter who else exists or in which order
        wf = WindFuelState(spread_rate=1.0, wind_speed=5.0, wind_azimuth=0.3)
        alone = initial_fire_map([(1.0, 2.0)], wf, case=2, ids=[33], noise_std=0.5, rng_seed=9, step=4)
        crowd = initial_fire_map([(7.0, 7.0), (1.0, 2.0), (0.0, 0.0)], wf, case=2, ids=[34, 33, 2**31],
                                 noise_std=0.5, rng_seed=9, step=4)
        moved = simulate_step(alone, 1.0).fronts[0].position
        others, same, _ = (f.position for f in simulate_step(crowd, 1.0).fronts)
        assert np.array_equal(same, moved)
        assert not np.array_equal(others - (7.0, 7.0), moved - (1.0, 2.0))  # each front has its own noise

    def test_fronts_move_with_a_wind_shift_in_its_own_step(self):
        # run_scenario applies a fire.schedule entry by replacing the map's
        # weather just before the step; the fronts move with the new wind.
        rate = calibrate_spread_rate(0.5, 5.0, DEFAULT_ELLIPSE)
        old = WindFuelState(spread_rate=rate, wind_speed=5.0, wind_azimuth=0.3)
        new = WindFuelState(spread_rate=rate, wind_speed=8.0, wind_azimuth=2.0)
        fmap = initial_fire_map([(1.0, 2.0), (-40.0, 7.5), (300.0, 0.0)], old, case=2, ids=[3, 8, 21],
                                noise_std=0.2, rng_seed=11, step=6)
        for _ in range(3):
            fmap = simulate_step(fmap, 1.0)
        shifted = replace(fmap, wind_fuel=new)
        stepped = simulate_step(shifted, 0.5)
        noise = 0.2 * keyed_normal(11, (MOTION, 9), [3, 8, 21], 2)
        step = front_velocity(new, DEFAULT_ELLIPSE) * 0.5
        assert not np.allclose(step, front_velocity(old, DEFAULT_ELLIPSE) * 0.5)
        for before, after, drawn in zip(shifted.fronts, stepped.fronts, noise):
            assert after.id == before.id
            assert np.array_equal(after.position, before.position + step + drawn)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**128 + 3])
    def test_substream_key_matches_the_spawn_key_form(self, seed):
        keys = [(), (0,), (4, 33, 0), (1, 17, 100_005, 1), (2**32 + 1, 5), (2**63, 2**64 + 3), (2**70,)]
        for key in keys:
            words = tuple(w for k in key for w in (k >> 32, k & 0xFFFFFFFF))
            expected = np.random.SeedSequence(entropy=seed, spawn_key=words)
            assert np.array_equal(substream_key(seed, *key).generate_state(8), expected.generate_state(8)), key

    def test_stepped_fronts_are_float64_pairs_with_unique_ids(self):
        # The step builds its fronts and map without the public
        # constructors' coercion and checks; its own output must pass them.
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=1.0,
        )
        fmap = initial_fire_map(
            [(0.0, 0.0), (10.0, 10.0), (40.0, -5.0)],
            wf,
            case=3,
            spawn_rate_max=3,
            spawn_interval=4,
            rng_seed=9,
            noise_std=0.05,
            max_per_lineage=12,
        )
        for _ in range(30):
            fmap = simulate_step(fmap, 1.0)
            assert isinstance(fmap.fronts, tuple)
            for f in fmap.fronts:
                assert isinstance(f.position, np.ndarray)
                assert f.position.dtype == np.float64 and f.position.shape == (2,)
            ids = [f.id for f in fmap.fronts]
            assert len(ids) == len(set(ids))
            replace(fmap)  # the public checks accept the stepped map
        assert fmap.step == 30 and len(fmap.fronts) > 3


KEYED_SEEDS = [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**128 + 3]
KEYED_IDS = [0, 1, 2, 2**32 - 1, 2**32, 5 << 32 | 3, 2**63, 2**64 - 1]
KEYED_PREFIXES = [(3,), (4, 17), (MOTION, 0), (SPAWN, 2**40)]


def splitmix64_reference(seed, prefix, i, k):
    """Values 1..k of the SplitMix64 stream of key (seed, *prefix, i), in Python ints."""
    mask = 2**64 - 1

    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    k0, k1 = (int(w) for w in substream_key(seed, *prefix).generate_state(2, np.uint64))
    state = (mix(i ^ k0) + k1) & mask
    values = []
    for _ in range(k):
        state = (state + 0x9E3779B97F4A7C15) & mask
        values.append((mix(state) >> 11) * 2.0**-53)
    return values


class TestKeyedGenerators:
    """Each id of a keyed draw reads its own counter-based generator, a SplitMix64 stream of its key."""

    @pytest.mark.parametrize("seed", KEYED_SEEDS)
    def test_states_equal_a_fresh_generator_of_the_full_key(self, seed):
        for prefix in KEYED_PREFIXES:
            batch = keyed_uniform(seed, prefix, KEYED_IDS, 4)
            for i, row in zip(KEYED_IDS, batch):
                assert row.tolist() == splitmix64_reference(seed, prefix, i, 4), (prefix, i)

    @pytest.mark.parametrize("seed", KEYED_SEEDS)
    def test_draws_equal_a_fresh_generator(self, seed):
        for draw in (keyed_uniform, keyed_normal):
            for prefix in KEYED_PREFIXES:
                batch = draw(seed, prefix, KEYED_IDS, 5)
                assert batch.shape == (len(KEYED_IDS), 5) and batch.dtype == np.float64
                assert np.array_equal(draw(seed, prefix, KEYED_IDS, 5), batch)  # across calls
                assert np.array_equal(draw(seed, prefix, KEYED_IDS[::-1], 5), batch[::-1])  # in any order
                for i, row in zip(KEYED_IDS, batch):
                    assert np.array_equal(draw(seed, prefix, [i], 5)[0], row), (draw, prefix, i)  # in any batch
                    assert np.array_equal(draw(seed, prefix, [i, 99], 3)[0], row[:3])  # for any k
                    assert np.array_equal(draw(seed, prefix, [i], 8)[0, :5], row)

    def test_state_of_an_id_ignores_the_rest_of_its_batch(self):
        alone = keyed_uniform(11, (4, 1), [33], 3)[0]
        for batch in ([33, 34], [2**40, 33], [34, 0, 33, 2**63]):
            rows = dict(zip(batch, keyed_uniform(11, (4, 1), batch, 3)))
            assert np.array_equal(rows[33], alone), batch

    def test_every_part_of_the_key_matters(self):
        base = keyed_uniform(7, (4, 17), [33], 4)[0]
        assert len(set(base.tolist())) == 4  # j
        for other in (
            keyed_uniform(8, (4, 17), [33], 4),
            keyed_uniform(7, (4, 18), [33], 4),
            keyed_uniform(7, (5, 17), [33], 4),
            keyed_uniform(7, (4,), [33], 4),
            keyed_uniform(7, (4, 17), [34], 4),
        ):
            assert not set(other[0].tolist()) & set(base.tolist())

    def test_normals_are_box_muller_of_the_uniform_pairs(self):
        u = keyed_uniform(3, (4, 1), KEYED_IDS, 6)
        z = keyed_normal(3, (4, 1), KEYED_IDS, 5)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
        angle = 2.0 * math.pi * u[:, 1::2]
        np.testing.assert_allclose(z[:, 0::2], (radius * np.cos(angle))[:, :3], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(z[:, 1::2], (radius * np.sin(angle))[:, :2], rtol=1e-14, atol=1e-15)

    def test_empty_batch_yields_nothing(self):
        assert keyed_uniform(3, (4,), [], 5).shape == (0, 5)
        assert keyed_normal(3, (4,), [], 3).shape == (0, 3)

    @pytest.mark.parametrize(
        "prefix, ids, tail",
        [((), [1], ()), ((4,), [-1], ()), ((4,), [2**64], ()), ((2**64,), [1], ()), ((4,), [1], (-2,))],
    )
    def test_key_outside_the_packed_form_is_refused(self, prefix, ids, tail):
        # a key is a purpose, further prefix parts (the tail) and an id, each a uint64
        with pytest.raises((ValueError, OverflowError)):
            keyed_uniform(3, (*prefix, *tail), ids, 2)


# Consecutive ids and the ids of spawned children, as a run uses them.
STAT_IDS = list(range(1, 20_001)) + [(7 << 32) + k for k in range(20_000)]


class TestKeyedDrawStatistics:
    """Deterministic checks: the draws are pure functions, so each bound holds or fails for good."""

    def test_uniform_moments(self):
        u = keyed_uniform(11, (MOTION, 3), STAT_IDS, 4)
        n = u.size
        assert 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 5 * math.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) < 5 * math.sqrt(1 / 180 / n)

    def test_uniform_chi_square(self):
        u = keyed_uniform(12, (SPAWN, 9), STAT_IDS, 5).ravel()
        observed = np.bincount((u * 50).astype(int), minlength=50)
        expected = u.size / 50
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < 85.35  # the 0.999 quantile of chi-square with 49 degrees of freedom

    def test_normal_moments(self):
        z = keyed_normal(13, (4, 0), STAT_IDS, 5).ravel()
        n = z.size
        assert abs(z.mean()) < 5 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 5 * math.sqrt(2 / n)
        assert abs((z**3).mean()) < 5 * math.sqrt(15 / n)
        assert abs((z**4).mean() - 3.0) < 5 * math.sqrt(96 / n)

    @pytest.mark.parametrize("draw", [keyed_uniform, keyed_normal])
    def test_no_correlation_between_adjacent_ids_or_adjacent_j(self, draw):
        x = draw(14, (3,), STAT_IDS, 6)
        bound = 5 / math.sqrt(len(STAT_IDS))
        for j in range(6):
            assert abs(np.corrcoef(x[:-1, j], x[1:, j])[0, 1]) < bound, j
        for j in range(5):
            assert abs(np.corrcoef(x[:, j], x[:, j + 1])[0, 1]) < bound, j


class TestValidation:
    def test_case3_requires_spawning(self):
        wf = WindFuelState(spread_rate=1.0, wind_speed=5.0, wind_azimuth=0.0)
        with pytest.raises(DomainError):
            initial_fire_map([(0.0, 0.0)], wf, case=3, spawn_rate_max=0)

    def test_case1_requires_zero_speed(self):
        wf = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=0.0)
        with pytest.raises(DomainError):
            initial_fire_map([(0.0, 0.0)], wf, case=1)

    def test_duplicate_ids_rejected(self):
        wf = WindFuelState(spread_rate=0.0, wind_speed=5.0, wind_azimuth=0.0)
        with pytest.raises(DomainError):
            initial_fire_map([(0.0, 0.0), (1.0, 1.0)], wf, case=1, ids=[1, 1])

    def test_public_constructor_checks_what_the_step_skips(self):
        moving = WindFuelState(spread_rate=2.0, wind_speed=5.0, wind_azimuth=0.0)
        stepped = simulate_step(initial_fire_map([(0.0, 0.0), (1.0, 1.0)], moving, case=2), 1.0)
        with pytest.raises(DomainError, match="unique"):
            FireMap(stepped.fronts + stepped.fronts[:1], moving, case=2)
        with pytest.raises(DomainError, match="case 1"):
            FireMap(stepped.fronts, moving, case=1)
        with pytest.raises(DomainError, match="case 1"):
            replace(stepped, case=1)
