"""Chat-completions client: request, parse, clamp, retry, fallback, audit."""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass

import requests

from ..env import ACTION_HIGH, ACTION_LOW
from .prompts import (ParseStatus, PromptKind, build_prompt, clamp_action,
                      parse_cot, parse_zero_shot, serialize_observation)

ENV_BASE_URL = "DOSEBENCH_LLM_BASE_URL"
ENV_API_KEY = "DOSEBENCH_LLM_API_KEY"

_COT_KINDS = (PromptKind.PRIOR_COT, PromptKind.PRIOR_MEAL_COT)

# What a transport may raise for a failed request or a malformed response:
# connection, timeout and HTTP status errors, undecodable JSON, and a reply
# missing the choices/message/content path.
_RECOVERABLE = (requests.RequestException, ValueError, KeyError, IndexError,
                TypeError)


@dataclass
class LlmConfig:
    base_url: str = ""
    model_name: str = "qwen2.5-7b-instruct"
    temperature: float = 0.7
    max_tokens: int | None = None    # None -> 16 zero-shot, 1024 CoT
    request_timeout: float = 30.0
    max_retries: int = 2
    fallback_dose: float = 0.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not (ACTION_LOW <= self.fallback_dose <= ACTION_HIGH):
            raise ValueError(f"fallback_dose must lie in "
                             f"[{ACTION_LOW}, {ACTION_HIGH}]")

    def resolved_base_url(self) -> str:
        url = self.base_url or os.environ.get(ENV_BASE_URL, "")
        if not url:
            raise ValueError(f"no base URL configured (set {ENV_BASE_URL})")
        return url.rstrip("/")

    def tokens_for(self, kind: PromptKind) -> int:
        if self.max_tokens is not None:
            return self.max_tokens
        return 1024 if PromptKind(kind) in _COT_KINDS else 16


@dataclass
class ChatExchange:
    messages: list
    raw_response: str | None
    parsed_dose: float | None
    parse_status: ParseStatus
    attempts: int = 1
    error: str | None = None  # class name of the last transport/decode error

    def to_json(self) -> str:
        return json.dumps({
            "error": self.error,
            "messages": self.messages,
            "raw_response": self.raw_response,
            "parsed_dose": self.parsed_dose,
            "parse_status": self.parse_status.value,
            "attempts": self.attempts,
        }, sort_keys=True)


_local = threading.local()  # this thread's (base URL, requests.Session)


def _session(base_url: str) -> requests.Session:
    """This thread's keep-alive session for ``base_url``.

    A thread keeps one session; a call for another base URL closes it and
    makes a new one. Proxy, CA-bundle and netrc settings are read from the
    environment once, when the session is made, instead of on every request.
    Sessions are not shared across threads: ``requests.Session`` is not
    thread-safe.
    """
    url, session = getattr(_local, "session", (None, None))
    if url != base_url:
        if session is not None:
            session.close()
        session = requests.Session()
        env = session.merge_environment_settings(base_url, {}, None, None,
                                                 None)
        session.proxies = env["proxies"]
        session.verify = env["verify"]
        session.auth = requests.utils.get_netrc_auth(base_url)
        session.trust_env = False
        _local.session = (base_url, session)
    return session


def http_transport(messages, config: LlmConfig, kind: PromptKind) -> str:
    """POST to the chat-completions endpoint; returns the reply content.

    Requests go over one pooled keep-alive connection per thread and base URL.
    """
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(ENV_API_KEY)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": config.model_name,
        "messages": messages,
        "temperature": config.temperature,
        "max_tokens": config.tokens_for(kind),
    }
    base_url = config.resolved_base_url()
    resp = _session(base_url).post(f"{base_url}/v1/chat/completions",
                                   json=body, headers=headers,
                                   timeout=config.request_timeout)
    resp.raise_for_status()
    return resp.json()["choices"][0]["message"]["content"]


def llm_act(history, kind: PromptKind, config: LlmConfig,
            transport) -> tuple[float, ChatExchange]:
    """Serialize -> prompt -> request -> parse -> clamp, with retries.

    Transport failures, undecodable or malformed responses and unparseable
    replies consume retries and finally resolve to the fallback dose; the
    last such error's class is recorded in the exchange. Any other exception
    is a programming error and propagates.
    """
    kind = PromptKind(kind)
    obs_text = serialize_observation(
        history, include_meals=kind == PromptKind.PRIOR_MEAL_COT)
    messages = build_prompt(kind, obs_text)
    parse = parse_cot if kind in _COT_KINDS else parse_zero_shot
    send = transport or http_transport

    raw = None
    error = None
    attempts = 0
    for attempt in range(config.max_retries + 1):
        attempts = attempt + 1
        try:
            raw = send(messages, config, kind)
        except _RECOVERABLE as exc:
            error = type(exc).__name__
            continue
        dose = parse(raw)
        if dose is None:
            continue
        action, status = clamp_action(dose)
        if status is ParseStatus.UNPARSEABLE:
            continue
        return action, ChatExchange(messages=messages, raw_response=raw,
                                    parsed_dose=dose, parse_status=status,
                                    attempts=attempts, error=error)
    return config.fallback_dose, ChatExchange(
        messages=messages, raw_response=raw, parsed_dose=None,
        parse_status=ParseStatus.FALLBACK_USED, attempts=attempts, error=error)


class AuditLog:
    """JSON-lines exchange log, one exchange per line."""

    def __init__(self, path):
        self._fh = open(path, "a")

    def record(self, exchange: ChatExchange):
        self._fh.write(exchange.to_json() + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()
