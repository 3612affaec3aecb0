"""Property suite for the ECC model registry and fault injector.

The simulator only counts flips per word and asks each code's
``classify`` for the outcome; the bit-exact codecs behind the codes
live here as the oracle (:func:`encode` / :func:`decode`, below):
single even parity, extended-Hamming SEC-DED, and shortened binary BCH
over GF(2^m) with Berlekamp–Massey and Chien search. Every registered
code must honour its declared guarantee on *every* flip pattern
Hypothesis can find: up to ``correct_t`` flips decode back to the
original data, up to ``detect_d`` flips are at least flagged, and the
clean path round-trips bit-exactly. ``classify`` must never report a
better outcome than the decoder achieves on the same flip count, and
the BCH check-bit count (cyclotomic cosets) must equal the degree of
the oracle's generator polynomial at every width GF(2^10) admits.
Width/overhead invariants are pinned for every ``ecc_word_bits`` in
the devices registry plus a randomised range, so a new device preset
cannot silently pick a width the codes mishandle.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.faults import FaultConfig
from repro.dram.devices import device_names, get_device
from repro.dram.ecc import (
    BCHCode,
    ECCCode,
    ECCStatus,
    FaultInjector,
    NoECC,
    ParityCode,
    SECDEDCode,
    ecc_names,
    estimate_carbon_per_gib_year,
    estimate_fit,
    get_ecc,
    register_ecc,
    word_outcome_probabilities,
)
from repro.errors import ConfigError


# ----------------------------------------------------------------------
# Bit-exact oracle: the real algebra behind each registered code
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecodeResult:
    """Decoded data word plus the decoder's verdict."""

    data: int
    status: ECCStatus


def parity(value: int) -> int:
    """XOR of all bits of ``value``."""
    return bin(value).count("1") & 1


def secded_data_positions(data_bits: int, r: int) -> list[int]:
    """Codeword positions holding data: every non-power-of-two in
    ``1..n``. The ``r`` Hamming check bits sit at the powers of two and
    the overall parity bit at position 0."""
    n = data_bits + r
    return [p for p in range(1, n + 1) if p & (p - 1)]


def secded_encode(data: int, data_bits: int) -> int:
    r = SECDEDCode._hamming_r(data_bits)
    n = data_bits + r
    cw = 0
    for i, pos in enumerate(secded_data_positions(data_bits, r)):
        if (data >> i) & 1:
            cw |= 1 << pos
    for j in range(r):
        check_pos = 1 << j
        bit = 0
        for pos in range(1, n + 1):
            if pos & check_pos and pos != check_pos:
                bit ^= (cw >> pos) & 1
        if bit:
            cw |= 1 << check_pos
    if parity(cw >> 1):
        cw |= 1  # overall parity at position 0
    return cw


def secded_decode(codeword: int, data_bits: int) -> DecodeResult:
    r = SECDEDCode._hamming_r(data_bits)
    n = data_bits + r
    syndrome = 0
    for pos in range(1, n + 1):
        if (codeword >> pos) & 1:
            syndrome ^= pos
    overall = parity(codeword & ((1 << (n + 1)) - 1))
    status = ECCStatus.CLEAN
    if overall:
        # Odd flip count: single-bit error, correctable when the
        # syndrome names a real position (0 = the parity bit).
        if syndrome <= n:
            codeword ^= 1 << syndrome  # syndrome 0 flips bit 0
            status = ECCStatus.CORRECTED
        else:
            status = ECCStatus.DETECTED
    elif syndrome:
        # Even flip count with a nonzero syndrome: double error.
        status = ECCStatus.DETECTED
    data = 0
    for i, pos in enumerate(secded_data_positions(data_bits, r)):
        if (codeword >> pos) & 1:
            data |= 1 << i
    return DecodeResult(data=data, status=status)


PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}


class GF:
    """GF(2^m) arithmetic via log/antilog tables."""

    def __init__(self, m: int) -> None:
        self.n = (1 << m) - 1
        self.exp = [0] * (2 * self.n)
        self.log = [0] * (self.n + 1)
        x = 1
        for i in range(self.n):
            self.exp[i] = self.exp[i + self.n] = x
            self.log[x] = i
            x <<= 1
            if x & (1 << m):
                x ^= PRIMITIVE_POLY[m]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        return self.exp[self.n - self.log[a]]

    def pow_alpha(self, e: int) -> int:
        return self.exp[e % self.n]


def gf2_mod(value: int, divisor: int) -> int:
    """Polynomial remainder over GF(2) (carry-less division)."""
    dlen = divisor.bit_length()
    while value.bit_length() >= dlen:
        value ^= divisor << (value.bit_length() - dlen)
    return value


def gf2_mul(a: int, b: int) -> int:
    """Carry-less polynomial product over GF(2)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


@lru_cache(maxsize=None)
def bch_tables(m: int, t: int) -> tuple[GF, int]:
    """GF(2^m) and the BCH(t) generator polynomial over it (bit i =
    coefficient of x^i): the product of the minimal polynomials of
    alpha^1..alpha^2t, one per conjugacy class."""
    gf = GF(m)
    seen: set[int] = set()
    generator = 1
    for power in range(1, 2 * t + 1):
        e = power % gf.n
        if e in seen:
            continue
        cls = []
        cur = e
        while cur not in cls:
            cls.append(cur)
            seen.add(cur)
            cur = (cur * 2) % gf.n
        # Minimal polynomial: product of (x + alpha^s) over the class,
        # computed in GF(2^m)[x]; coefficients land in GF(2).
        poly = [1]
        for s in cls:
            root = gf.pow_alpha(s)
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] ^= gf.mul(c, root)
                nxt[i + 1] ^= c
            poly = nxt
        assert set(poly) <= {0, 1}, f"primitive polynomial wrong for m={m}"
        minimal = sum(1 << i for i, c in enumerate(poly) if c)
        generator = gf2_mul(generator, minimal)
    return gf, generator


def bch_of(code: BCHCode, data_bits: int) -> tuple[GF, int]:
    return bch_tables(code._field_order(data_bits), code.t)


def bch_encode(code: BCHCode, data: int, data_bits: int) -> int:
    _, generator = bch_of(code, data_bits)
    shifted = data << (generator.bit_length() - 1)
    return shifted | gf2_mod(shifted, generator)


def bch_decode(code: BCHCode, codeword: int, data_bits: int) -> DecodeResult:
    """Power-sum syndromes, Berlekamp–Massey for the error locator, and
    a Chien search over the shortened positions; decode failure (locator
    degree above t, or root count mismatching the degree) is DETECTED."""
    gf, generator = bch_of(code, data_bits)
    deg = generator.bit_length() - 1
    nbits = data_bits + deg
    positions = [p for p in range(nbits) if (codeword >> p) & 1]
    two_t = 2 * code.t
    syndromes = []
    for j in range(1, two_t + 1):
        s = 0
        for p in positions:
            s ^= gf.pow_alpha(j * p)
        syndromes.append(s)
    if not any(syndromes):
        return DecodeResult(data=codeword >> deg, status=ECCStatus.CLEAN)
    # Berlekamp–Massey: minimal LFSR generating the syndromes.
    locator = [1] + [0] * two_t
    prev = [1] + [0] * two_t
    length = 0
    shift = 1
    prev_disc = 1
    for step in range(two_t):
        disc = syndromes[step]
        for i in range(1, length + 1):
            disc ^= gf.mul(locator[i], syndromes[step - i])
        if disc == 0:
            shift += 1
            continue
        coef = gf.mul(disc, gf.inv(prev_disc))
        saved = locator.copy()
        for i in range(0, two_t + 1 - shift):
            locator[i + shift] ^= gf.mul(coef, prev[i])
        if 2 * length <= step:
            length = step + 1 - length
            prev = saved
            prev_disc = disc
            shift = 1
        else:
            shift += 1
    if length > code.t:
        return DecodeResult(data=codeword >> deg, status=ECCStatus.DETECTED)
    # Chien search over the shortened positions: bit p is in error iff
    # alpha^{-p} is a root of the locator.
    errors = []
    sigma = locator[: length + 1]
    for p in range(nbits):
        inv_exp = (gf.n - p % gf.n) % gf.n
        value = 0
        for i, c in enumerate(sigma):
            if c:
                value ^= gf.mul(c, gf.pow_alpha(inv_exp * i))
        if value == 0:
            errors.append(p)
    if len(errors) != length:
        return DecodeResult(data=codeword >> deg, status=ECCStatus.DETECTED)
    for p in errors:
        codeword ^= 1 << p
    return DecodeResult(data=codeword >> deg, status=ECCStatus.CORRECTED)


def encode(code: ECCCode, data: int, data_bits: int) -> int:
    """Data word -> stored codeword under ``code`` (unsigned ints)."""
    data &= (1 << data_bits) - 1
    if isinstance(code, ParityCode):
        return data | (parity(data) << data_bits)
    if isinstance(code, SECDEDCode):
        return secded_encode(data, data_bits)
    if isinstance(code, BCHCode):
        return bch_encode(code, data, data_bits)
    assert isinstance(code, NoECC)
    return data


def decode(code: ECCCode, codeword: int, data_bits: int) -> DecodeResult:
    """Stored codeword -> data word + the decoder's verdict."""
    if isinstance(code, ParityCode):
        status = ECCStatus.DETECTED if parity(codeword) else ECCStatus.CLEAN
        return DecodeResult(codeword & ((1 << data_bits) - 1), status)
    if isinstance(code, SECDEDCode):
        return secded_decode(codeword, data_bits)
    if isinstance(code, BCHCode):
        return bch_decode(code, codeword, data_bits)
    assert isinstance(code, NoECC)
    return DecodeResult(codeword & ((1 << data_bits) - 1), ECCStatus.CLEAN)


#: Every data width a registered DRAM device can ask the codes to
#: protect, plus small odd widths to stress the algebra.
DEVICE_WIDTHS = sorted(
    {get_device(name).ecc_word_bits for name in device_names()}
)
ALL_WIDTHS = sorted(set(DEVICE_WIDTHS) | {8, 11, 16, 27, 64})

CODE_NAMES = ("none", "parity", "secded", "bch")

codes = st.sampled_from([get_ecc(name) for name in CODE_NAMES])
widths = st.sampled_from(ALL_WIDTHS)


def data_words(data_bits: int):
    return st.integers(min_value=0, max_value=(1 << data_bits) - 1)


def flip_sets(code: ECCCode, data_bits: int, count: int):
    """Exactly ``count`` distinct flip positions within the codeword."""
    n = code.codeword_bits(data_bits)
    return st.lists(
        st.integers(min_value=0, max_value=n - 1),
        min_size=count, max_size=count, unique=True,
    )


def corrupt(codeword: int, positions) -> int:
    for pos in positions:
        codeword ^= 1 << pos
    return codeword


class TestRegistry:
    def test_all_expected_codes_registered(self) -> None:
        assert set(CODE_NAMES) <= set(ecc_names())

    def test_names_are_sorted(self) -> None:
        assert ecc_names() == sorted(ecc_names())

    def test_lookup_returns_the_named_code(self) -> None:
        for name in CODE_NAMES:
            assert get_ecc(name).name == name

    def test_unknown_code_raises_with_listing(self) -> None:
        with pytest.raises(ConfigError, match="secded"):
            get_ecc("reed-solomon")

    def test_register_rejects_anonymous_codes(self) -> None:
        with pytest.raises(ConfigError, match="non-empty"):
            register_ecc(ECCCode())

    def test_width_below_one_bit_rejected(self) -> None:
        for name in CODE_NAMES:
            with pytest.raises(ConfigError, match=">= 1"):
                get_ecc(name).check_bits(0)


class TestWidthInvariants:
    @settings(max_examples=60, deadline=None)
    @given(code=codes, data_bits=st.integers(min_value=1, max_value=160))
    def test_codeword_width_identity(
        self, code: ECCCode, data_bits: int
    ) -> None:
        assert code.codeword_bits(data_bits) == (
            data_bits + code.check_bits(data_bits)
        )
        assert code.storage_overhead(data_bits) >= 1.0
        assert code.check_bits(data_bits) >= 0

    def test_device_registry_widths_have_known_overheads(self) -> None:
        # The widths the device presets actually use, pinned: a change
        # to the Hamming/BCH construction that alters stored bits is a
        # cache-semantics change and must be deliberate.
        secded, bch = get_ecc("secded"), get_ecc("bch")
        expected_secded = {32: 39, 64: 72, 128: 137}
        expected_bch = {32: 44, 64: 78, 128: 144}
        for width in DEVICE_WIDTHS:
            assert secded.codeword_bits(width) == expected_secded[width]
            assert bch.codeword_bits(width) == expected_bch[width]
            assert get_ecc("parity").codeword_bits(width) == width + 1
            assert get_ecc("none").codeword_bits(width) == width

    @settings(max_examples=30, deadline=None)
    @given(data_bits=st.integers(min_value=1, max_value=160))
    def test_encoded_words_fit_the_declared_width(
        self, data_bits: int
    ) -> None:
        all_ones = (1 << data_bits) - 1
        for name in CODE_NAMES:
            code = get_ecc(name)
            n = code.codeword_bits(data_bits)
            assert encode(code, all_ones, data_bits) < (1 << n)
            assert encode(code, 0, data_bits) < (1 << n)

    def test_bch_coset_count_is_the_generator_degree(self) -> None:
        # check_bits counts cyclotomic-coset exponents; the oracle
        # multiplies the minimal polynomials out. Every width GF(2^10)
        # admits, and the first one it does not.
        for t in (1, 2, 3):
            code = BCHCode(t=t)
            widest = (1 << 10) - 1 - 10 * t
            for data_bits in range(1, widest + 1):
                _, generator = bch_of(code, data_bits)
                degree = generator.bit_length() - 1
                assert code.check_bits(data_bits) == degree, (t, data_bits)
            with pytest.raises(ConfigError, match=r"GF\(2\^10\)"):
                code.check_bits(widest + 1)


class TestCleanRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(code=codes, data_bits=widths, data=st.data())
    def test_decode_of_encode_is_identity(
        self, code: ECCCode, data_bits: int, data
    ) -> None:
        word = data.draw(data_words(data_bits))
        result = decode(code, encode(code, word, data_bits), data_bits)
        assert result == DecodeResult(data=word, status=ECCStatus.CLEAN)


class TestGuarantees:
    """encode → inject k flips → decode honours each code's contract."""

    @settings(max_examples=120, deadline=None)
    @given(data_bits=widths, data=st.data())
    def test_secded_corrects_any_single_flip(
        self, data_bits: int, data
    ) -> None:
        code = get_ecc("secded")
        word = data.draw(data_words(data_bits))
        flips = data.draw(flip_sets(code, data_bits, 1))
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        assert result.status is ECCStatus.CORRECTED
        assert result.data == word

    @settings(max_examples=120, deadline=None)
    @given(data_bits=widths, data=st.data())
    def test_secded_detects_any_double_flip(
        self, data_bits: int, data
    ) -> None:
        code = get_ecc("secded")
        word = data.draw(data_words(data_bits))
        flips = data.draw(flip_sets(code, data_bits, 2))
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        assert result.status is ECCStatus.DETECTED

    @settings(max_examples=120, deadline=None)
    @given(data_bits=widths, count=st.integers(min_value=1, max_value=3),
           data=st.data())
    def test_parity_detects_every_odd_flip_count(
        self, data_bits: int, count: int, data
    ) -> None:
        code = get_ecc("parity")
        word = data.draw(data_words(data_bits))
        flips = data.draw(
            flip_sets(code, data_bits, 2 * count - 1)  # 1, 3, or 5
        )
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        assert result.status is ECCStatus.DETECTED

    @settings(max_examples=120, deadline=None)
    @given(data_bits=widths, count=st.integers(min_value=1, max_value=2),
           data=st.data())
    def test_bch_corrects_up_to_t_flips(
        self, data_bits: int, count: int, data
    ) -> None:
        code = get_ecc("bch")
        assert isinstance(code, BCHCode) and code.correct_t == 2
        word = data.draw(data_words(data_bits))
        flips = data.draw(flip_sets(code, data_bits, count))
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        assert result.status is ECCStatus.CORRECTED
        assert result.data == word

    @settings(max_examples=80, deadline=None)
    @given(data_bits=widths, count=st.integers(min_value=1, max_value=4),
           data=st.data())
    def test_none_returns_corrupted_data_as_clean(
        self, data_bits: int, count: int, data
    ) -> None:
        # The whole point of the sweep: unprotected cells pass flipped
        # bits straight through with a CLEAN verdict (silent).
        code = get_ecc("none")
        word = data.draw(data_words(data_bits))
        flips = data.draw(flip_sets(code, data_bits, count))
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        assert result.status is ECCStatus.CLEAN
        assert result.data == word ^ corrupt(0, flips)


class TestClassify:
    """The statistical path mirrors the guarantees, pessimistically."""

    @settings(max_examples=60, deadline=None)
    @given(code=codes, flips=st.integers(min_value=0, max_value=8))
    def test_classify_matches_declared_guarantee(
        self, code: ECCCode, flips: int
    ) -> None:
        status = code.classify(flips)
        if flips == 0:
            assert status is ECCStatus.CLEAN
        elif flips <= code.correct_t:
            assert status is ECCStatus.CORRECTED
        elif code.name == "parity":
            assert status is (
                ECCStatus.DETECTED if flips % 2 else ECCStatus.SILENT
            )
        elif flips <= code.detect_d:
            assert status is ECCStatus.DETECTED
        else:
            assert status is ECCStatus.SILENT

    @settings(max_examples=200, deadline=None)
    @given(code=codes, data_bits=widths,
           count=st.integers(min_value=0, max_value=5), data=st.data())
    def test_classify_never_beats_the_decoder(
        self, code: ECCCode, data_bits: int, count: int, data
    ) -> None:
        # CLEAN and CORRECTED promise the original word back with that
        # verdict; DETECTED promises a flag or a true correction (a
        # miscorrection is silent corruption); SILENT promises nothing.
        word = data.draw(data_words(data_bits))
        flips = data.draw(flip_sets(code, data_bits, count))
        result = decode(
            code, corrupt(encode(code, word, data_bits), flips), data_bits
        )
        verdict = code.classify(count)
        if verdict in (ECCStatus.CLEAN, ECCStatus.CORRECTED):
            assert result == DecodeResult(data=word, status=verdict)
        elif verdict is ECCStatus.DETECTED:
            assert result.status is ECCStatus.DETECTED or result == (
                DecodeResult(data=word, status=ECCStatus.CORRECTED)
            )

    def test_spot_checks(self) -> None:
        assert NoECC().classify(1) is ECCStatus.SILENT
        assert ParityCode().classify(2) is ECCStatus.SILENT
        assert SECDEDCode().classify(3) is ECCStatus.SILENT
        assert BCHCode(t=2).classify(2) is ECCStatus.CORRECTED


class TestFaultInjector:
    def make(self, **overrides) -> FaultInjector:
        kwargs = dict(
            config=FaultConfig(enabled=True, p_bit=1e-3),
            trcd=10, trp=10, seed=0xDEAD, channel_id=0,
            stored_bits=72,
        )
        kwargs.update(overrides)
        return FaultInjector(**kwargs)

    def test_same_inputs_same_flips(self) -> None:
        a, b = self.make(), self.make()
        for rid in range(2000):
            assert a.flips_for(rid) == b.flips_for(rid)

    def test_positions_lie_within_the_stored_word(self) -> None:
        injector = self.make(stored_bits=39)
        for rid in range(2000):
            flips = injector.flips_for(rid)
            assert all(0 <= pos < 39 for pos in flips)
            assert len(set(flips)) == len(flips)

    def test_seed_channel_and_rid_all_matter(self) -> None:
        base = self.make()
        othr = self.make(seed=0xBEEF)
        chan = self.make(channel_id=1)
        sites = [
            tuple(inj.flips_for(rid) for rid in range(4000))
            for inj in (base, othr, chan)
        ]
        assert sites[0] != sites[1]
        assert sites[0] != sites[2]

    def test_disabled_config_never_flips(self) -> None:
        injector = self.make(config=FaultConfig(enabled=False, p_bit=0.5))
        assert injector.p_bit == 0.0
        assert all(injector.flips_for(rid) == () for rid in range(100))

    def test_lower_timings_raise_the_flip_rate(self) -> None:
        cfg = FaultConfig(enabled=True, p_bit=1e-6)
        nominal = FaultInjector(
            config=cfg, trcd=cfg.nominal_trcd, trp=cfg.nominal_trp,
            seed=1, channel_id=0, stored_bits=72,
        )
        truncated = FaultInjector(
            config=cfg, trcd=cfg.nominal_trcd - 4, trp=cfg.nominal_trp - 4,
            seed=1, channel_id=0, stored_bits=72,
        )
        assert truncated.p_bit > nominal.p_bit > 0.0

    def test_empirical_rate_tracks_p_bit(self) -> None:
        # Aggressive p so the law of large numbers converges quickly.
        injector = self.make(
            config=FaultConfig(enabled=True, p_bit=5e-4), stored_bits=72
        )
        reads = 20_000
        total = sum(len(injector.flips_for(rid)) for rid in range(reads))
        expected = injector.p_bit * 72 * reads
        assert expected * 0.8 < total < expected * 1.2


class TestEstimators:
    def test_outcome_probabilities_sum_to_one(self) -> None:
        for name in CODE_NAMES:
            probs = word_outcome_probabilities(
                get_ecc(name), 64, 1e-6
            )
            assert math.isclose(sum(probs.values()), 1.0, rel_tol=1e-9)

    def test_protection_collapses_fit(self) -> None:
        words_per_hour = 1e12
        fit_none = estimate_fit(get_ecc("none"), 64, 1e-9, words_per_hour)
        fit_sec = estimate_fit(get_ecc("secded"), 64, 1e-9, words_per_hour)
        assert fit_none > 0
        assert fit_sec < fit_none / 1e6

    def test_fit_monotonic_in_p_bit(self) -> None:
        code = get_ecc("secded")
        fits = [
            estimate_fit(code, 64, p, 1e12)
            for p in (1e-12, 1e-9, 1e-6)
        ]
        assert fits[0] < fits[1] < fits[2]

    def test_carbon_scales_with_storage_overhead(self) -> None:
        kwargs = dict(total_energy_nj=5e6, elapsed_us=1e3)
        g_none = estimate_carbon_per_gib_year(
            get_ecc("none"), 64, **kwargs
        )
        g_sec = estimate_carbon_per_gib_year(
            get_ecc("secded"), 64, **kwargs
        )
        assert 0 < g_none < g_sec
