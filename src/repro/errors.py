"""Exception hierarchy for the repro package.

Every error raised deliberately by the simulator derives from
:class:`ReproError`, so callers can catch simulator-level failures
without masking programming errors (``TypeError`` etc.).
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class ProtocolError(ReproError):
    """A coherence controller reached a state that the protocol forbids.

    These indicate a bug in the protocol implementation (or a corrupted
    message), never a legal-but-unlucky simulation outcome.
    """


class NetworkError(ReproError):
    """The NoC model was asked to do something topologically impossible."""


class TraceError(ReproError):
    """A trace record stream is malformed or inconsistent."""


class SimulationError(ReproError):
    """The simulation kernel detected a fatal condition (e.g. deadlock)."""


class DeadlockError(SimulationError):
    """No progress was made for longer than the configured watchdog window."""


class SnapshotError(ReproError):
    """A checkpoint image could not be produced or restored.

    Raised for corrupt/truncated images, snapshot-format or source
    fingerprint mismatches (an image must only be restored by the exact
    code that wrote it), and state that cannot be serialized
    deterministically.
    """
