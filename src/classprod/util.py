"""Small numeric helpers shared across modules."""

from .errors import EvenPrimeError, InvalidPrimeError


def int_byte_width(max_value: int) -> int:
    """Bytes needed to store integers in ``0..max_value`` at fixed width."""
    return max(1, (int(max_value).bit_length() + 7) // 8)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test; fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_prime(p, where: str) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidPrimeError(f"{where} needs a prime p, got {p!r}")


def _require_odd_prime(p, where: str) -> None:
    _require_prime(p, where)
    if p == 2:
        raise EvenPrimeError(f"{where} needs an odd prime p, got 2")
