"""The failure type of the certification path.

A check that a certificate rests on must survive `python -O`, which
strips `assert` statements, so it calls `require` instead.
"""


class CertificateError(ArithmeticError):
    """A computed result failed a check that a certificate rests on."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CertificateError(msg)
