"""Small numeric helpers shared across modules."""

from .errors import EvenPrimeError, InvalidPrimeError


def int_byte_width(max_value: int) -> int:
    """Bytes needed to store integers in ``0..max_value`` at fixed width."""
    return max(1, (int(max_value).bit_length() + 7) // 8)


#: Miller-Rabin with these bases has no strong pseudoprime below
#: 3.18 * 10^23 (Jiang & Deng, 2014), so it is exact for every n < 2^64.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 2^64."""
    if n <= _BASES[-1]:
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1
                                     for r in range(s)):
            return False
    return True


def _require_prime(p, where: str) -> None:
    if isinstance(p, int) and p >= 1 << 64:
        raise InvalidPrimeError(
            f"{where} needs a prime p below 2^64, got a {p.bit_length()}-bit p")
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidPrimeError(f"{where} needs a prime p, got {p!r}")


def _require_odd_prime(p, where: str) -> None:
    _require_prime(p, where)
    if p == 2:
        raise EvenPrimeError(f"{where} needs an odd prime p, got 2")
