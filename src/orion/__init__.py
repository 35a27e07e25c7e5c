"""Orion: an adaptive multi-turn dense retrieval engine.

Retrieval as a test-time search loop: structured think/query/retrieve turns
over a flat cosine index, scripted behavioral policies or a remote LLM,
beam-search inference with confidence pruning, turn-level rewards with
group-relative advantages, synthetic trajectory generation, and an IR plus
behavior analytics harness.
"""

from .config import ENGINE_VERSION as __version__
