"""Adapter for real OpenAI-compatible chat endpoints.

The paper runs GPT-4o-mini through the OpenAI API.  This backend speaks
the same ``/v1/chat/completions`` wire protocol using only the standard
library, so pointing Borges at a real model is::

    from repro.llm.client import ChatClient
    from repro.llm.openai_compat import OpenAICompatBackend

    backend = OpenAICompatBackend(
        base_url="https://api.openai.com/v1",
        api_key=os.environ["OPENAI_API_KEY"],
    )
    client = ChatClient(backend, config=LLMConfig(model="gpt-4o-mini"))

Everything downstream (NER module, favicon classifier, caching, usage
accounting) is unchanged — the simulated backend and this one are
interchangeable ``ChatBackend`` implementations.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Sequence

from ..config import LLMConfig
from ..errors import LLMBackendError
from .client import ChatBackend, ChatMessage, ImageContent, TextContent


def message_to_wire(message: ChatMessage) -> Dict[str, object]:
    """Serialize a :class:`ChatMessage` into OpenAI wire format."""
    if isinstance(message.content, str):
        return {"role": message.role, "content": message.content}
    blocks: List[Dict[str, object]] = []
    for block in message.content:
        if isinstance(block, (TextContent, ImageContent)):
            blocks.append(block.to_json())
        else:  # pragma: no cover - defensive
            raise LLMBackendError(f"unsupported content block {block!r}")
    return {"role": message.role, "content": blocks}


class OpenAICompatBackend(ChatBackend):
    """Minimal, dependency-free OpenAI-compatible chat driver."""

    name = "openai-compat"

    def __init__(
        self,
        base_url: str,
        api_key: str = "",
        timeout_seconds: float = 60.0,
    ) -> None:
        self._base_url = base_url.rstrip("/")
        self._api_key = api_key
        self._timeout = timeout_seconds

    def complete(
        self, messages: Sequence[ChatMessage], config: LLMConfig
    ) -> str:
        payload = {
            "model": config.model,
            "temperature": config.temperature,
            "top_p": config.top_p,
            "max_tokens": config.max_tokens,
            "messages": [message_to_wire(m) for m in messages],
        }
        request = urllib.request.Request(
            self._base_url + "/chat/completions",
            data=json.dumps(payload).encode("utf-8"),
            headers=self._headers(),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self._timeout) as resp:
                body = json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise LLMBackendError(
                f"chat endpoint returned HTTP {exc.code}: {exc.reason}"
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise LLMBackendError(f"chat endpoint unreachable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise LLMBackendError(f"non-JSON chat response: {exc}") from exc
        return self._extract_content(body)

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        return headers

    @staticmethod
    def _extract_content(body: Dict[str, object]) -> str:
        try:
            choices = body["choices"]  # type: ignore[index]
            first = choices[0]  # type: ignore[index]
            content = first["message"]["content"]  # type: ignore[index]
        except (KeyError, IndexError, TypeError) as exc:
            raise LLMBackendError(
                f"malformed chat completion payload: {body!r:.200}"
            ) from exc
        if not isinstance(content, str):
            raise LLMBackendError("chat completion content is not text")
        return content
