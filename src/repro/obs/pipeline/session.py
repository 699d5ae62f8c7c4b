"""The name ``benchmarks/e2e`` imports the session by.

There is one session class, :class:`repro.obs.session.ObsSession`; the
frozen end-to-end benchmark predates the merge and reaches it as
``repro.obs.pipeline.session.PipelineObsSession``.
"""

from repro.obs.session import ObsSession

PipelineObsSession = ObsSession
