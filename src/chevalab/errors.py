"""Exception types shared across the package."""


class ChevalabError(Exception):
    """Base class for all package errors."""


class NonPrime(ChevalabError):
    pass


class TooLarge(ChevalabError):
    pass


class NoModulusInTable(ChevalabError):
    pass


class CtxMismatch(ChevalabError):
    pass


class InsufficientData(ChevalabError):
    pass


class ShardOutOfRange(ChevalabError):
    pass


class CorruptCheckpoint(ChevalabError):
    pass


class WrongCharacteristic(ChevalabError):
    pass


class LevelTooLow(ChevalabError):
    pass


class BadConfig(ChevalabError):
    pass


class IoError(ChevalabError):
    pass


class TheoremCheckFailed(ChevalabError):
    """A computed value contradicts the closed form or bound it must satisfy."""
