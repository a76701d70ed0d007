import math

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
    keyed_generators,
    propagate_front,
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


class TestPropagation:
    def _front(self, q=(0.0, 0.0), v=(1.0, 2.0)):
        return FireFront(id=1, position=np.array(q), velocity=np.array(v), lineage=1)

    def test_exact_euler_step(self):
        wf = WindFuelState(spread_rate=0.0, wind_speed=5.0, wind_azimuth=0.0)
        rng = np.random.default_rng(0)
        out = propagate_front(self._front(), 0.5, 0.0, front_velocity(wf, DEFAULT_ELLIPSE), rng)
        assert out.position == pytest.approx([0.5, 1.0])

    def test_stationary_without_noise(self):
        wf = WindFuelState(spread_rate=0.0, wind_speed=5.0, wind_azimuth=0.0)
        rng = np.random.default_rng(0)
        out = propagate_front(self._front(v=(0.0, 0.0)), 3.0, 0.0, front_velocity(wf, DEFAULT_ELLIPSE), rng)
        assert out.position == pytest.approx([0.0, 0.0])

    def test_noise_is_seed_deterministic(self):
        wf = WindFuelState(spread_rate=1.0, wind_speed=5.0, wind_azimuth=0.3)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            outs.append(propagate_front(self._front(), 1.0, 0.1, front_velocity(wf, DEFAULT_ELLIPSE), rng))
        assert np.array_equal(outs[0].position, outs[1].position)

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


class TestSpawning:
    def _parent(self):
        wf = WindFuelState(
            spread_rate=calibrate_spread_rate(1.0, 5.0, DEFAULT_ELLIPSE),
            wind_speed=5.0,
            wind_azimuth=math.pi / 4,
        )
        v = front_velocity(wf, DEFAULT_ELLIPSE)
        return FireFront(id=9, position=np.array([5.0, 5.0]), velocity=v, lineage=9), wf

    def test_zero_rate_spawns_nothing(self):
        parent, wf = self._parent()
        rng = np.random.default_rng(0)
        assert spawn_fronts(parent, 0, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), rng) == []

    def test_count_bounded(self):
        parent, wf = self._parent()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            kids = spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), rng)
            assert 0 <= len(kids) <= 3

    def test_children_inside_growth_box(self):
        parent, wf = self._parent()
        half = np.abs(parent.velocity) * 1.0
        seen = 0
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            for kid in spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), rng):
                seen += 1
                offset = kid.position - parent.position
                assert abs(offset[0]) <= half[0] + 1e-12
                assert abs(offset[1]) <= half[1] + 1e-12
        assert seen > 500  # the Monte Carlo actually exercised the box

    def test_child_ids_are_unique_and_disjoint(self):
        parent, wf = self._parent()
        rng = np.random.default_rng(12)
        kids = spawn_fronts(parent, 3, 1.0, front_velocity(wf, DEFAULT_ELLIPSE), rng)
        ids = [k.id for k in kids]
        assert len(set(ids)) == len(ids)
        assert all(i != parent.id and i >= (1 << 32) for i in ids)
        assert all(k.lineage == parent.lineage for k in kids)


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
        # the same front draws the same noise no matter who else exists
        a = next(keyed_generators(9, (4,), [33], (0,))).normal(size=3)
        b, c = [rng.normal(size=3) for rng in keyed_generators(9, (4,), [33, 34], (0,))]
        _, e = [rng.normal(size=3) for rng in keyed_generators(9, (4,), [34, 33], (0,))]
        assert np.array_equal(a, b)
        assert np.array_equal(a, e)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**128 + 3])
    def test_substream_key_matches_the_spawn_key_form(self, seed):
        keys = [(), (0,), (4, 33, 0), (1, 17, 100_005, 1), (2**32 + 1, 5), (2**63, 2**64 + 3), (2**70,)]
        for key in keys:
            words = tuple(w for k in key for w in (k >> 32, k & 0xFFFFFFFF))
            expected = np.random.SeedSequence(entropy=seed, spawn_key=words)
            assert np.array_equal(substream_key(seed, *key).generate_state(8), expected.generate_state(8)), key


KEYED_SEEDS = [0, 7, 2**32 - 1, 2**32 + 5, 2**64 + 9, 2**128 + 3]
KEYED_IDS = [0, 2**32 - 1, 2**32, 5 << 32 | 3, 2**63, 2**64 - 1]
KEYED_PREFIXES = [(3,), (4, 17)]
KEYED_TAILS = [(), (0,), (1,)]


def fresh_generator(seed, prefix, i, tail):
    return np.random.default_rng(substream_key(seed, *prefix, i, *tail))


class TestKeyedGenerators:
    @pytest.mark.parametrize("seed", KEYED_SEEDS)
    def test_states_equal_a_fresh_generator_of_the_full_key(self, seed):
        for prefix in KEYED_PREFIXES:
            for tail in KEYED_TAILS:
                states = [rng.bit_generator.state for rng in keyed_generators(seed, prefix, KEYED_IDS, tail)]
                assert len(states) == len(KEYED_IDS)
                for i, state in zip(KEYED_IDS, states):
                    expected = np.random.PCG64(substream_key(seed, *prefix, i, *tail)).state
                    # the dicts hold the 128-bit state, inc, has_uint32 and uinteger
                    assert state == expected, (prefix, i, tail)

    @pytest.mark.parametrize("seed", KEYED_SEEDS)
    def test_draws_equal_a_fresh_generator(self, seed):
        for prefix in KEYED_PREFIXES:
            for tail in KEYED_TAILS:
                for i, rng in zip(KEYED_IDS, keyed_generators(seed, prefix, KEYED_IDS, tail)):
                    fresh = fresh_generator(seed, prefix, i, tail)
                    assert np.array_equal(rng.normal(size=5), fresh.normal(size=5))
                for i, rng in zip(KEYED_IDS, keyed_generators(seed, prefix, KEYED_IDS, tail)):
                    # integers draws 32 bits and buffers the other half of the
                    # 64-bit output; the next id must not inherit that buffer
                    fresh = fresh_generator(seed, prefix, i, tail)
                    assert rng.integers(0, 4) == fresh.integers(0, 4)
                    assert rng.uniform() == fresh.uniform()
                    assert rng.integers(0, 4) == fresh.integers(0, 4)
                    assert rng.bit_generator.state == fresh.bit_generator.state

    def test_state_of_an_id_ignores_the_rest_of_its_batch(self):
        alone = next(keyed_generators(11, (4,), [33], (1,))).bit_generator.state
        for batch in ([33, 34], [2**40, 33], [34, 0, 33, 2**63]):
            states = {i: rng.bit_generator.state for i, rng in zip(batch, keyed_generators(11, (4,), batch, (1,)))}
            assert states[33] == alone, batch

    def test_empty_batch_yields_nothing(self):
        assert list(keyed_generators(3, (4,), [])) == []

    @pytest.mark.parametrize(
        "prefix, ids, tail",
        [((), [1], ()), ((4,), [-1], ()), ((4,), [2**64], ()), ((2**64,), [1], ()), ((4,), [1], (-2,))],
    )
    def test_key_outside_the_packed_form_is_refused(self, prefix, ids, tail):
        with pytest.raises(ValueError):
            list(keyed_generators(3, prefix, ids, tail))


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
