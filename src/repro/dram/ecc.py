"""ECC model registry and deterministic DRAM bit-flip fault injection.

The paper's premise is that GPGPU applications tolerate the *errors* a
reduced-latency, reduced-energy DRAM introduces; this module closes the
reliability loop the ROADMAP asks for. It provides:

* a string-keyed **ECC code registry** (``none`` / ``parity`` /
  ``secded`` / ``bch``) mirroring the device and policy registries.
  Each code states its stored width (:meth:`ECCCode.check_bits`), its
  guarantee (``correct_t`` / ``detect_d``) and :meth:`ECCCode.classify`,
  which maps the number of flips in one word to its outcome,
  pessimistically treating anything beyond the guarantee as silent
  corruption (a bounded-distance decoder may detect some of those
  patterns, but may also miscorrect; FIT uses the worst case);
* a **deterministic fault injector** that flips stored bits on DRAM
  reads with a probability derived from the timing scheme (lower
  tRCD/tRP ⇒ exponentially more flips — see
  :class:`~repro.config.faults.FaultConfig`), seeded from the SimSpec
  content key so identical specs produce identical flip sites across
  serial and process-parallel runs;
* the **read-path state machine** (:class:`ReadPathECC`) a channel
  carries when ECC or fault injection is active: writes pay encode
  energy, served reads pay inject→check, and AMS-dropped reads are
  counted as *spared* — they never touch the faulty cell;
* analytic **FIT** (silent-corruption failures per 10^9 device-hours)
  and **carbon-per-GiB-year** estimators combining the code's
  storage overhead with the simulated energy.

The injector knows only *how many* bits flipped per word, so the
simulator never encodes or decodes a word. The bit-exact codecs
(single parity, Hamming SEC-DED, and binary BCH over GF(2^m) with
Berlekamp–Massey and Chien search) live in ``tests/test_ecc.py`` as the
oracle: they check every code's guarantee, pin the BCH check-bit count
against the real generator polynomial, and check that ``classify``
never reports a better outcome than the decoder achieves.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.config.faults import FaultConfig
from repro.errors import ConfigError

#: Energy of one bit-level XOR in the check/syndrome trees, in nJ
#: (~5 fJ per gate at the modelled node). Encode cost scales with
#: check_bits x data_bits, decode with check_bits x codeword_bits; for
#: SEC-DED over 64-bit words this lands near 3 % of the e_rd_nj column
#: energy — in line with published on-die-ECC overheads.
XOR_ENERGY_NJ = 5e-6

#: Word width the read path protects when no device override applies.
DEFAULT_ECC_WORD_BITS = 64

#: Embodied manufacturing carbon of DRAM, kg CO2e per GiB (typical LCA
#: figures for modern nodes land in 0.1-0.3 kg/GiB).
EMBODIED_KGCO2_PER_GIB = 0.125
#: Amortisation window for the embodied share, years.
DEVICE_LIFETIME_YEARS = 4.0
#: Grid carbon intensity, g CO2e per kWh (world-average-ish).
CARBON_INTENSITY_G_PER_KWH = 400.0
#: Memory-system capacity the operational power is attributed to, GiB.
ASSUMED_CAPACITY_GIB = 8.0


class ECCStatus(enum.Enum):
    """Outcome of checking one data word."""

    CLEAN = "clean"
    CORRECTED = "corrected"
    DETECTED = "detected"
    SILENT = "silent"


class ECCCode:
    """One error-correcting code, as the read path sees it.

    ``correct_t`` / ``detect_d`` state the code's guarantee: any
    pattern of up to ``correct_t`` flips decodes back to the original
    data, and any pattern of up to ``detect_d`` flips is at least
    flagged. Widths are per protected *data* word; stored words are
    ``codeword_bits`` wide.
    """

    name: str = ""
    description: str = ""
    #: Guaranteed corrected / detected flips per word.
    correct_t: int = 0
    detect_d: int = 0

    # -- widths --------------------------------------------------------
    def check_bits(self, data_bits: int) -> int:
        """Redundant bits stored per ``data_bits``-wide word."""
        raise NotImplementedError

    def codeword_bits(self, data_bits: int) -> int:
        """Total stored bits per word (data + check)."""
        return data_bits + self.check_bits(data_bits)

    def storage_overhead(self, data_bits: int) -> float:
        """Stored bits per data bit (>= 1.0)."""
        return self.codeword_bits(data_bits) / data_bits

    # -- outcomes ------------------------------------------------------
    def classify(self, flips: int) -> ECCStatus:
        """Guaranteed outcome of ``flips`` bit errors in one codeword.

        Pessimistic beyond the guarantee: any pattern the code does not
        promise to correct or detect counts as silent corruption.
        """
        if flips <= 0:
            return ECCStatus.CLEAN
        if flips <= self.correct_t:
            return ECCStatus.CORRECTED
        if flips <= self.detect_d:
            return ECCStatus.DETECTED
        return ECCStatus.SILENT

    # ------------------------------------------------------------------
    def _check_width(self, data_bits: int) -> None:
        if data_bits < 1:
            raise ConfigError(
                f"ECC data width must be >= 1 bit, got {data_bits}"
            )


class NoECC(ECCCode):
    """Pass-through: no redundancy, every flip is silent."""

    name = "none"
    description = "no protection; raw cell bits"
    correct_t = 0
    detect_d = 0

    def check_bits(self, data_bits: int) -> int:
        self._check_width(data_bits)
        return 0


class ParityCode(ECCCode):
    """Single even-parity bit: detects every odd number of flips."""

    name = "parity"
    description = "single even parity bit per word (detects odd flips)"
    correct_t = 0
    detect_d = 1  # guaranteed: any single flip (and every odd count)

    def check_bits(self, data_bits: int) -> int:
        self._check_width(data_bits)
        return 1

    def classify(self, flips: int) -> ECCStatus:
        if flips <= 0:
            return ECCStatus.CLEAN
        return ECCStatus.DETECTED if flips % 2 else ECCStatus.SILENT


class SECDEDCode(ECCCode):
    """Extended Hamming: corrects any 1 flip, detects any 2.

    ``r`` Hamming check bits (smallest ``r`` with
    ``2^r >= data_bits + r + 1``) plus one overall parity bit extending
    the distance to 4.
    """

    name = "secded"
    description = "Hamming SEC-DED (corrects 1 flip, detects 2)"
    correct_t = 1
    detect_d = 2

    @staticmethod
    def _hamming_r(data_bits: int) -> int:
        r = 0
        while (1 << r) < data_bits + r + 1:
            r += 1
        return r

    def check_bits(self, data_bits: int) -> int:
        self._check_width(data_bits)
        return self._hamming_r(data_bits) + 1  # + overall parity


class BCHCode(ECCCode):
    """Shortened binary BCH(t): corrects any ``t`` flips per word.

    The field GF(2^m) is sized per data width (smallest m with
    ``2^m - 1 >= data_bits + m*t``). The generator polynomial is the
    product of the minimal polynomials of alpha^1..alpha^2t, giving a
    designed distance of ``2t + 1``; its degree, the check-bit count,
    is the number of distinct exponents in their cyclotomic cosets.
    """

    def __init__(self, t: int = 2, name: str = "bch") -> None:
        if t < 1:
            raise ConfigError(f"BCH t must be >= 1, got {t}")
        self.t = t
        self.name = name
        self.description = (
            f"shortened binary BCH (corrects {t} flips per word)"
        )
        self.correct_t = t
        self.detect_d = t  # beyond t flips nothing is guaranteed

    def _field_order(self, data_bits: int) -> int:
        for m in range(3, 11):
            if (1 << m) - 1 >= data_bits + m * self.t:
                return m
        raise ConfigError(
            f"BCH(t={self.t}) over {data_bits}-bit words needs a field "
            "larger than GF(2^10); use a narrower word"
        )

    def check_bits(self, data_bits: int) -> int:
        self._check_width(data_bits)
        # alpha^j's minimal polynomial has one root per exponent in the
        # coset {j * 2^i mod (2^m - 1)}; the generator is their product.
        n = (1 << self._field_order(data_bits)) - 1
        exponents: set[int] = set()
        for j in range(1, 2 * self.t + 1):
            e = j % n
            while e not in exponents:
                exponents.add(e)
                e = e * 2 % n
        return len(exponents)


# ----------------------------------------------------------------------
# Registry (mirrors repro.dram.devices / repro.sched.policies)
# ----------------------------------------------------------------------
_CODES: dict[str, ECCCode] = {}


def register_ecc(code: ECCCode) -> ECCCode:
    """Register an ECC model under its name; returns it for chaining."""
    if not code.name:
        raise ConfigError("ECC code name must be non-empty")
    _CODES[code.name] = code
    return code


def get_ecc(name: str) -> ECCCode:
    """Look up a registered ECC model by name."""
    try:
        return _CODES[name]
    except KeyError:
        raise ConfigError(
            f"unknown ECC code {name!r}; "
            f"registered: {', '.join(sorted(_CODES))}"
        ) from None


def ecc_names() -> list[str]:
    """Sorted names of every registered ECC model."""
    return sorted(_CODES)


register_ecc(NoECC())
register_ecc(ParityCode())
register_ecc(SECDEDCode())
register_ecc(BCHCode(t=2))


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
_M64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finaliser: cheap, platform-independent bit mixing."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


class FaultInjector:
    """Draws deterministic bit-flip sites for each served read.

    Each read of one cache line is one draw: the flip count comes from
    inverting the Binomial(stored_bits, p) CDF at a uniform variate
    derived — via SplitMix64 — from ``(seed, channel, rid)``, and flip
    positions come from the same counter-based stream. Request ids are
    reset per simulation cell (:func:`repro.dram.request
    .reset_request_ids`), so the flip sites depend only on the spec
    content, never on execution order or process fan-out.
    """

    __slots__ = ("p_bit", "stored_bits", "_base", "_p0")

    def __init__(
        self,
        config: FaultConfig,
        *,
        trcd: float,
        trp: float,
        seed: int,
        channel_id: int,
        stored_bits: int,
    ) -> None:
        self.p_bit = config.effective_p_bit(trcd, trp)
        self.stored_bits = stored_bits
        self._base = _mix64(seed ^ _mix64(0xC4A1 + channel_id))
        # P(0 flips) precomputed: the overwhelmingly common case costs
        # one mix and one compare per read.
        self._p0 = (
            (1.0 - self.p_bit) ** stored_bits if self.p_bit > 0.0 else 1.0
        )

    def flips_for(self, rid: int) -> tuple[int, ...]:
        """Flip sites (stored-bit indices) for read ``rid``."""
        if self.p_bit <= 0.0:
            return ()
        h = _mix64(self._base ^ _mix64(rid))
        u = h / 18446744073709551616.0  # / 2^64 -> [0, 1)
        if u < self._p0:
            return ()
        count = self._invert_binomial(u)
        if count <= 0:
            return ()
        positions: list[int] = []
        taken: set[int] = set()
        draw = 0
        while len(positions) < count:
            draw += 1
            pos = _mix64(h ^ draw) % self.stored_bits
            if pos in taken:
                continue
            taken.add(pos)
            positions.append(pos)
        return tuple(positions)

    def _invert_binomial(self, u: float) -> int:
        """Smallest k with CDF(k) >= u for Binomial(stored_bits, p)."""
        n = self.stored_bits
        p = self.p_bit
        ratio = p / (1.0 - p)
        pmf = self._p0
        cdf = pmf
        k = 0
        while cdf < u and k < n:
            k += 1
            pmf *= (n - k + 1) / k * ratio
            cdf += pmf
        return k


@dataclass
class ReadPathECC:
    """Per-channel inject→classify state carried by the DRAM channel.

    Attached by :meth:`repro.dram.channel.Channel.attach_read_path`;
    the channel calls :meth:`on_access` from inside ``issue_column`` —
    the single point every served column command passes through — and
    the controller reports AMS drops via :meth:`on_spared`, so a
    dropped request by construction never reads the (possibly faulty)
    cells.
    """

    code: ECCCode
    word_bits: int
    words_per_line: int
    injector: Optional[FaultInjector] = None
    #: Data words checked on served reads / encoded on writes.
    words_checked: int = 0
    words_encoded: int = 0
    reads_checked: int = 0
    #: Reads answered by the VP unit instead of touching the array.
    reads_spared: int = 0
    flips_injected: int = 0
    words_corrected: int = 0
    words_detected: int = 0
    words_silent: int = 0
    _digest: "hashlib._Hash" = field(
        default_factory=lambda: hashlib.sha256(), repr=False
    )

    def __post_init__(self) -> None:
        self._codeword_bits = self.code.codeword_bits(self.word_bits)

    # ------------------------------------------------------------------
    def on_access(self, rid: Optional[int], is_write: bool) -> None:
        """One served column command (called from the channel)."""
        if is_write:
            self.words_encoded += self.words_per_line
            return
        self.reads_checked += 1
        self.words_checked += self.words_per_line
        injector = self.injector
        if injector is None or rid is None:
            return
        flips = injector.flips_for(rid)
        if not flips:
            return
        self.flips_injected += len(flips)
        per_word: dict[int, int] = {}
        digest = self._digest
        for pos in flips:
            per_word[pos // self._codeword_bits] = (
                per_word.get(pos // self._codeword_bits, 0) + 1
            )
            digest.update(b"%d:%d;" % (rid, pos))
        classify = self.code.classify
        for count in per_word.values():
            status = classify(count)
            if status is ECCStatus.CORRECTED:
                self.words_corrected += 1
            elif status is ECCStatus.DETECTED:
                self.words_detected += 1
            elif status is ECCStatus.SILENT:
                self.words_silent += 1

    def on_spared(self, reads: int) -> None:
        """AMS dropped ``reads`` requests before they touched DRAM."""
        self.reads_spared += reads

    # ------------------------------------------------------------------
    def energy_nj(self) -> float:
        """Encode + check energy accumulated on this channel."""
        check = self.code.check_bits(self.word_bits)
        encode_nj = check * self.word_bits * XOR_ENERGY_NJ
        decode_nj = check * self._codeword_bits * XOR_ENERGY_NJ
        return (
            self.words_encoded * encode_nj
            + self.words_checked * decode_nj
        )

    def site_digest_hex(self) -> str:
        """Hex digest over every (rid, bit) flip site seen so far."""
        return self._digest.hexdigest()


# ----------------------------------------------------------------------
# FIT and carbon estimators
# ----------------------------------------------------------------------
def word_outcome_probabilities(
    code: ECCCode, word_bits: int, p_bit: float
) -> dict[ECCStatus, float]:
    """Per-read-word probability of each classify outcome.

    Analytic binomial over the stored codeword: smooth at realistic
    error rates where a finite simulation would quantise to zero
    events. Terms are summed until numerically negligible.
    """
    n = code.codeword_bits(word_bits)
    probs = {status: 0.0 for status in ECCStatus}
    if p_bit <= 0.0:
        probs[ECCStatus.CLEAN] = 1.0
        return probs
    q = 1.0 - p_bit
    total = 0.0
    for k in range(0, n + 1):
        term = math.comb(n, k) * (p_bit ** k) * (q ** (n - k))
        probs[code.classify(k)] += term
        total += term
        if k > 0 and term < 1e-30 and total > 0.999999:
            break
    return probs


def estimate_fit(
    code: ECCCode,
    word_bits: int,
    p_bit: float,
    words_read_per_hour: float,
) -> float:
    """Silent-data-corruption FIT: silent failures per 1e9 device-hours.

    The per-word silent probability (flip patterns beyond the code's
    guarantee, pessimistically uncorrectable-and-undetected) times the
    observed read-word rate, extrapolated to the FIT horizon.
    """
    if words_read_per_hour <= 0.0:
        return 0.0
    p_silent = word_outcome_probabilities(code, word_bits, p_bit)[
        ECCStatus.SILENT
    ]
    return p_silent * words_read_per_hour * 1e9


def estimate_carbon_per_gib_year(
    code: ECCCode,
    word_bits: int,
    *,
    total_energy_nj: float,
    elapsed_us: float,
    capacity_gib: float = ASSUMED_CAPACITY_GIB,
) -> float:
    """Grams of CO2e per GiB-year: embodied share + operational share.

    Embodied manufacturing carbon scales with the code's storage
    overhead (check bits are real cells), amortised over the device
    lifetime; the operational share converts the simulated average
    power into annual energy at grid intensity, attributed across the
    assumed memory-system capacity.
    """
    overhead = code.storage_overhead(word_bits)
    embodied_g = (
        EMBODIED_KGCO2_PER_GIB * 1000.0 * overhead / DEVICE_LIFETIME_YEARS
    )
    if elapsed_us <= 0.0:
        return embodied_g
    watts = total_energy_nj / (elapsed_us * 1000.0)
    kwh_per_year = watts * 8760.0 / 1000.0
    operational_g = (
        kwh_per_year / capacity_gib * CARBON_INTENSITY_G_PER_KWH
    )
    return embodied_g + operational_g


# ----------------------------------------------------------------------
# Report summary
# ----------------------------------------------------------------------
@dataclass
class ECCSummary:
    """Reliability counters and estimates attached to a SimReport."""

    code: str
    word_bits: int
    p_bit: float
    reads_checked: int = 0
    reads_spared: int = 0
    words_checked: int = 0
    words_encoded: int = 0
    flips_injected: int = 0
    words_corrected: int = 0
    words_detected: int = 0
    words_silent: int = 0
    #: SHA-256 over every (rid, bit) flip site, channel-concatenated —
    #: the determinism tests compare this across execution modes.
    site_digest: str = ""
    #: Analytic silent-corruption FIT at the simulated read rate.
    fit: float = 0.0
    #: Estimated g CO2e per GiB-year (embodied + operational).
    carbon_g_per_gib_year: float = 0.0

    def to_dict(self) -> dict:
        """Lossless JSON form."""
        return {
            "code": self.code,
            "word_bits": self.word_bits,
            "p_bit": self.p_bit,
            "reads_checked": self.reads_checked,
            "reads_spared": self.reads_spared,
            "words_checked": self.words_checked,
            "words_encoded": self.words_encoded,
            "flips_injected": self.flips_injected,
            "words_corrected": self.words_corrected,
            "words_detected": self.words_detected,
            "words_silent": self.words_silent,
            "site_digest": self.site_digest,
            "fit": self.fit,
            "carbon_g_per_gib_year": self.carbon_g_per_gib_year,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ECCSummary":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


def summarize_read_paths(
    read_paths: list[ReadPathECC],
    *,
    total_energy_nj: float,
    elapsed_us: float,
) -> ECCSummary:
    """Aggregate per-channel read paths into one report summary."""
    first = read_paths[0]
    code = first.code
    p_bit = (
        first.injector.p_bit if first.injector is not None else 0.0
    )
    combined = hashlib.sha256()
    for rp in read_paths:
        combined.update(rp.site_digest_hex().encode("ascii"))
    summary = ECCSummary(
        code=code.name,
        word_bits=first.word_bits,
        p_bit=p_bit,
        reads_checked=sum(rp.reads_checked for rp in read_paths),
        reads_spared=sum(rp.reads_spared for rp in read_paths),
        words_checked=sum(rp.words_checked for rp in read_paths),
        words_encoded=sum(rp.words_encoded for rp in read_paths),
        flips_injected=sum(rp.flips_injected for rp in read_paths),
        words_corrected=sum(rp.words_corrected for rp in read_paths),
        words_detected=sum(rp.words_detected for rp in read_paths),
        words_silent=sum(rp.words_silent for rp in read_paths),
        site_digest=combined.hexdigest(),
    )
    elapsed_hours = elapsed_us / 3.6e9
    words_per_hour = (
        summary.words_checked / elapsed_hours if elapsed_hours > 0 else 0.0
    )
    summary.fit = estimate_fit(
        code, first.word_bits, p_bit, words_per_hour
    )
    summary.carbon_g_per_gib_year = estimate_carbon_per_gib_year(
        code,
        first.word_bits,
        total_energy_nj=total_energy_nj,
        elapsed_us=elapsed_us,
    )
    return summary


__all__ = [
    "ECCStatus",
    "ECCCode",
    "NoECC",
    "ParityCode",
    "SECDEDCode",
    "BCHCode",
    "register_ecc",
    "get_ecc",
    "ecc_names",
    "FaultInjector",
    "ReadPathECC",
    "ECCSummary",
    "summarize_read_paths",
    "word_outcome_probabilities",
    "estimate_fit",
    "estimate_carbon_per_gib_year",
    "DEFAULT_ECC_WORD_BITS",
    "XOR_ENERGY_NJ",
]
