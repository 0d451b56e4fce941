"""Provider-agnostic chat-completions client.

Models the subset of the OpenAI-style chat API Borges uses: messages with
text and image content blocks, temperature/top_p sampling parameters, and
token-usage accounting.  Backends implement :class:`ChatBackend`; the
offline default is :class:`repro.llm.simulated.SimulatedChatBackend`, and
a thin adapter over a real OpenAI-compatible endpoint would satisfy the
same protocol.
"""

from __future__ import annotations

import base64
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..config import LLMConfig
from ..errors import CircuitOpenError, LLMBackendError
from ..obs.registry import MetricsRegistry, get_registry
from ..resilience.breaker import CircuitBreaker
from ..resilience.policy import RetryPolicy
from .cache import ResponseCache
from .usage import TokenUsage, estimate_tokens


@dataclass(frozen=True)
class TextContent:
    """A text content block."""

    text: str

    def to_json(self) -> Dict[str, object]:
        return {"type": "text", "text": self.text}


@dataclass(frozen=True)
class ImageContent:
    """An image content block carried as a base64 data URL (Listing 3)."""

    data: bytes
    media_type: str = "image/jpeg"

    @property
    def data_url(self) -> str:
        encoded = base64.b64encode(self.data).decode("ascii")
        return f"data:{self.media_type};base64,{encoded}"

    def to_json(self) -> Dict[str, object]:
        return {"type": "image_url", "image_url": {"url": self.data_url}}

    @classmethod
    def from_data_url(cls, url: str) -> "ImageContent":
        header, _, payload = url.partition(",")
        media_type = "image/jpeg"
        if header.startswith("data:"):
            media_type = header[len("data:"):].split(";")[0] or media_type
        return cls(data=base64.b64decode(payload), media_type=media_type)


ContentBlock = Union[TextContent, ImageContent]


@dataclass(frozen=True)
class ChatMessage:
    """One chat message: a role plus text or mixed content blocks."""

    role: str  # "system" | "user" | "assistant"
    content: Union[str, Sequence[ContentBlock]]

    @property
    def text(self) -> str:
        """All text content concatenated."""
        if isinstance(self.content, str):
            return self.content
        return "\n".join(
            block.text for block in self.content if isinstance(block, TextContent)
        )

    @property
    def images(self) -> List[ImageContent]:
        if isinstance(self.content, str):
            return []
        return [b for b in self.content if isinstance(b, ImageContent)]

    def cache_key(self) -> str:
        parts = [self.role, self.text]
        parts.extend(img.data_url for img in self.images)
        return "\x1e".join(parts)


@dataclass(frozen=True)
class ChatResponse:
    """A completed chat turn."""

    content: str
    model: str
    usage: TokenUsage
    cached: bool = False


class ChatBackend:
    """Protocol for model drivers.  Subclass and implement ``complete``."""

    name = "abstract"

    def complete(
        self, messages: Sequence[ChatMessage], config: LLMConfig
    ) -> str:
        raise NotImplementedError


class ChatClient:
    """Front-end with deterministic caching, retries and usage accounting.

    At temperature 0 / top_p 1 the paper's setup is reproducible, so
    identical requests are served from cache — exactly the behaviour a
    production pipeline wants when re-running over an unchanged snapshot.

    Completion attempts run under a :class:`RetryPolicy` (exponential
    backoff + jitter on retryable backend errors) behind a
    :class:`CircuitBreaker`: once the backend fails
    ``failure_threshold`` consecutive times, further requests fail fast
    with :class:`~repro.errors.CircuitOpenError` instead of burning the
    retry budget against a dead service.
    """

    def __init__(
        self,
        backend: ChatBackend,
        config: Optional[LLMConfig] = None,
        cache: Optional[ResponseCache] = None,
        max_retries: int = 3,
        registry: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._backend = backend
        self._config = (config or LLMConfig()).validate()
        self._cache = cache if cache is not None else ResponseCache()
        self._policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(attempts=max(1, max_retries))
        ).validate()
        self._max_retries = self._policy.attempts
        self._breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(name=f"llm:{backend.name}", registry=registry)
        )
        self._registry = registry
        self.total_usage = TokenUsage()
        self.request_count = 0

    @property
    def _metrics(self) -> MetricsRegistry:
        # Resolved per call so tests swapping the global registry see
        # clients constructed earlier report into their registry.
        return self._registry if self._registry is not None else get_registry()

    def cache_stats(self) -> Dict[str, int]:
        """The response cache's hits/misses/entries accounting."""
        return self._cache.stats()

    @property
    def config(self) -> LLMConfig:
        return self._config

    @property
    def backend_name(self) -> str:
        return self._backend.name

    def chat(self, messages: Sequence[ChatMessage]) -> ChatResponse:
        """Complete a conversation, consulting the cache first."""
        metrics = self._metrics
        key = self._request_key(messages)
        deterministic = self._config.temperature == 0.0
        if deterministic:
            cached = self._cache.get(key)
            if cached is not None:
                metrics.counter(
                    "llm_cache_events_total", "response-cache lookups",
                    result="hit",
                ).inc()
                return ChatResponse(
                    content=cached,
                    model=self._config.model,
                    usage=TokenUsage(),
                    cached=True,
                )
            metrics.counter(
                "llm_cache_events_total", "response-cache lookups",
                result="miss",
            ).inc()
        start = time.perf_counter()
        content = self._complete_with_retries(messages)
        metrics.histogram(
            "llm_request_seconds", "backend completion latency",
            backend=self._backend.name,
        ).observe(time.perf_counter() - start)
        if deterministic:
            self._cache.put(key, content)
        prompt_tokens = sum(estimate_tokens(m.text) for m in messages)
        usage = TokenUsage(
            prompt_tokens=prompt_tokens,
            completion_tokens=estimate_tokens(content),
        )
        self.total_usage = self.total_usage + usage
        self.request_count += 1
        metrics.counter(
            "llm_requests_total", "completed (non-cached) chat requests",
            backend=self._backend.name,
        ).inc()
        metrics.counter(
            "llm_tokens_total", "tokens spent", kind="prompt"
        ).inc(usage.prompt_tokens)
        metrics.counter(
            "llm_tokens_total", "tokens spent", kind="completion"
        ).inc(usage.completion_tokens)
        return ChatResponse(content=content, model=self._config.model, usage=usage)

    def ask(self, prompt: str) -> str:
        """Single-user-message convenience wrapper."""
        return self.chat([ChatMessage(role="user", content=prompt)]).content

    @property
    def breaker(self) -> CircuitBreaker:
        return self._breaker

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._policy

    def _complete_with_retries(self, messages: Sequence[ChatMessage]) -> str:
        backend, metrics = self._backend, self._metrics
        key = messages[-1].cache_key() if messages else ""

        def attempt() -> str:
            if not self._breaker.allow():
                raise CircuitOpenError(self._breaker.name)
            try:
                content = backend.complete(messages, self._config)
            except LLMBackendError as exc:
                metrics.counter(
                    "llm_retries_total", "failed completion attempts",
                    backend=backend.name,
                ).inc()
                if exc.retryable:
                    self._breaker.record_failure()
                raise
            self._breaker.record_success()
            return content

        def on_retry(attempt_no: int, exc: BaseException, delay: float) -> None:
            metrics.histogram(
                "llm_backoff_seconds", "backoff slept before a retry",
                backend=backend.name,
            ).observe(delay)

        try:
            return self._policy.execute(attempt, key=key, on_retry=on_retry)
        except CircuitOpenError:
            raise
        except LLMBackendError as exc:
            if not exc.retryable:
                raise
            raise LLMBackendError(
                f"backend {backend.name} failed after "
                f"{self._policy.attempts} attempts: {exc}"
            ) from exc

    def _request_key(self, messages: Sequence[ChatMessage]) -> str:
        head = f"{self._config.model}|{self._config.temperature}|{self._config.top_p}"
        return head + "\x1d" + "\x1d".join(m.cache_key() for m in messages)
