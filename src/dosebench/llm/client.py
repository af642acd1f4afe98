"""Chat-completions client: request, parse, clamp, retry, fallback."""

from __future__ import annotations

import base64
import http.client
import json
import math
import netrc
import os
import select
import ssl
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass
from urllib.parse import unquote, urlsplit

from ..env import ACTION_LOW
from .prompts import (ParseStatus, PromptKind, build_prompt, clamp_action,
                      parse_cot, parse_zero_shot, serialize_observation)

ENV_BASE_URL = "DOSEBENCH_LLM_BASE_URL"
ENV_API_KEY = "DOSEBENCH_LLM_API_KEY"

_COT_KINDS = (PromptKind.PRIOR_COT, PromptKind.PRIOR_MEAL_COT)

# The request protocol every LLM run uses: the token budget of a zero-shot
# and of a chain-of-thought reply, the retries after a failed or unparseable
# attempt, and the dose a decision falls back to when every attempt failed.
MAX_TOKENS_ZERO_SHOT = 16
MAX_TOKENS_COT = 1024
MAX_RETRIES = 2
FALLBACK_DOSE = ACTION_LOW

# What a transport may raise for a failed request or a malformed response:
# socket, timeout, TLS and HTTP status errors (all OSError), broken HTTP
# framing, undecodable JSON, and a reply missing the choices/message/content
# path or whose content is not a string.
_RECOVERABLE = (OSError, http.client.HTTPException, ValueError, KeyError,
                IndexError, TypeError)


@dataclass
class LlmConfig:
    base_url: str = ""
    model_name: str = "qwen2.5-7b-instruct"
    temperature: float = 0.7
    request_timeout: float = 30.0
    workers: int = 1        # requests in flight in a lock-step round

    def __post_init__(self):
        # NaN passes a `< 0` test, and a NaN or infinite temperature cannot be
        # sent as JSON; a timeout of zero or less makes every socket call
        # fail. Either way every decision would silently fall back.
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and non-negative, "
                             f"got {self.temperature!r}")
        if not (math.isfinite(self.request_timeout)
                and self.request_timeout > 0):
            raise ValueError(f"request_timeout must be finite and positive, "
                             f"got {self.request_timeout!r}")
        if not self.workers >= 1:   # NaN too: NaN threads never start
            raise ValueError(f"workers must be at least 1, got {self.workers!r}")

    def resolved_base_url(self) -> str:
        url = self.base_url or os.environ.get(ENV_BASE_URL, "")
        if not url:
            raise ValueError(f"no base URL configured (set {ENV_BASE_URL})")
        return url.rstrip("/")


def tokens_for(kind: PromptKind) -> int:
    """The reply's token budget for a prompt kind."""
    return MAX_TOKENS_COT if PromptKind(kind) in _COT_KINDS \
        else MAX_TOKENS_ZERO_SHOT


@dataclass
class ChatExchange:
    messages: list
    raw_response: str | None
    parsed_dose: float | None
    parse_status: ParseStatus
    attempts: int
    error: str | None  # class name of the last transport/decode error


_local = threading.local()  # .connection: (base URL, *_connect(base URL))


def _basic_auth(user: str, password: str) -> str:
    return "Basic " + base64.b64encode(
        f"{user}:{password}".encode("latin1")).decode("ascii")


def _netrc_auth(host: str) -> str | None:
    """Basic credentials for ``host`` from ``$NETRC``, else ``~/.netrc`` or
    ``~/_netrc``; an unreadable or malformed file gives none."""
    path = os.environ.get("NETRC")
    for candidate in ([path] if path is not None else ["~/.netrc", "~/_netrc"]):
        candidate = os.path.expanduser(candidate)
        if not os.path.exists(candidate):
            continue
        try:
            entry = netrc.netrc(candidate).authenticators(host)
        except (netrc.NetrcParseError, OSError):
            return None
        if entry and any(entry):
            login, account, password = entry
            return _basic_auth(login or account or "", password or "")
        return None
    return None


def _tls_context() -> ssl.SSLContext:
    """Verifies against ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE`` (a file
    or a directory) when set, else against the system store."""
    bundle = (os.environ.get("REQUESTS_CA_BUNDLE")
              or os.environ.get("CURL_CA_BUNDLE"))
    if not bundle:
        return ssl.create_default_context()
    if os.path.isdir(bundle):
        return ssl.create_default_context(capath=bundle)
    return ssl.create_default_context(cafile=bundle)


def check_base_url(base_url: str):
    """``urlsplit(base_url)``; refused unless its scheme is http or https and
    it names a host."""
    url = urlsplit(base_url)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(f"base URL must be http:// or https:// and name a "
                         f"host: {base_url}")
    return url


def _connect(base_url: str, timeout: float):
    """A keep-alive connection for ``base_url``, the chat endpoint's request
    target on it, and the headers every request on it carries.

    The environment is read here, once per connection:
    - the proxy (``http_proxy``, ``https_proxy``, ``all_proxy``, skipped for
      hosts in ``no_proxy``). An ``http`` target is sent to the proxy in
      absolute form; an ``https`` target goes through a CONNECT tunnel;
    - the CA bundle (see ``_tls_context``), for an ``https`` target;
    - basic credentials from netrc, else from the base URL's user info. They
      take precedence over the ``DOSEBENCH_LLM_API_KEY`` bearer token.
    """
    url = check_base_url(base_url)
    netloc = url.netloc.rpartition("@")[2]
    target = f"{url.path}/v1/chat/completions"
    headers = {"Content-Type": "application/json"}
    auth = _netrc_auth(url.hostname)
    if auth is None and (url.username or url.password):
        auth = _basic_auth(unquote(url.username or ""),
                           unquote(url.password or ""))
    if auth is not None:
        headers["Authorization"] = auth

    proxies = urllib.request.getproxies_environment()
    proxy = None
    if not urllib.request.proxy_bypass_environment(netloc, proxies):
        proxy = proxies.get(url.scheme) or proxies.get("all")
    host, port, proxy_headers = url.hostname, url.port, {}
    if proxy:
        purl = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if purl.scheme != "http":
            raise ValueError(f"proxy must be http://host[:port]: {proxy}")
        host, port = purl.hostname, purl.port
        if purl.username or purl.password:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                unquote(purl.username or ""), unquote(purl.password or ""))

    if url.scheme == "http":
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        if proxy:
            target = f"http://{netloc}{target}"
            headers.update(proxy_headers)
    else:
        conn = http.client.HTTPSConnection(host, port, timeout=timeout,
                                           context=_tls_context())
        if proxy:
            conn.set_tunnel(url.hostname, url.port, headers=proxy_headers)
    return conn, target, headers


def _connection(base_url: str, timeout: float):
    """This thread's keep-alive connection for ``base_url``.

    A thread keeps one connection; a call for another base URL closes it and
    makes a new one. A connection the server has hung up while it sat idle
    is reopened before it is used, so a keep-alive timeout costs no attempt.
    """
    cached = getattr(_local, "connection", None)
    if cached is None or cached[0] != base_url:
        if cached is not None:
            cached[1].close()
        cached = (base_url, *_connect(base_url, timeout))
        _local.connection = cached
    _, conn, target, headers = cached
    if conn.sock is not None:
        # An idle socket is readable only if the server closed it (or sent
        # something no request asked for); either way it cannot be reused.
        idle = select.poll()
        idle.register(conn.sock, select.POLLIN)
        if idle.poll(0):
            conn.close()
    if conn.timeout != timeout:
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
    return conn, target, headers


def http_transport(messages, config: LlmConfig, kind: PromptKind) -> str:
    """POST to the chat-completions endpoint; returns the reply content.

    Requests go over one keep-alive ``http.client`` connection per thread and
    base URL. ``request_timeout`` bounds each socket operation. A status of
    400 or more raises ``urllib.error.HTTPError``; a reply whose content is
    not a string (say, ``null``) raises ``ValueError``.
    """
    base_url = config.resolved_base_url()
    conn, target, headers = _connection(base_url, config.request_timeout)
    api_key = os.environ.get(ENV_API_KEY)
    if api_key and "Authorization" not in headers:
        headers = {**headers, "Authorization": f"Bearer {api_key}"}
    body = json.dumps({
        "model": config.model_name,
        "messages": messages,
        "temperature": config.temperature,
        "max_tokens": tokens_for(kind),
    }, allow_nan=False).encode()
    try:
        conn.request("POST", target, body, headers)
        resp = conn.getresponse()
        payload = resp.read()
    except BaseException:
        conn.close()  # a half-sent request or unread reply spoils it
        raise
    if resp.status >= 400:
        raise urllib.error.HTTPError(f"{base_url}/v1/chat/completions",
                                     resp.status, resp.reason, resp.headers,
                                     None)
    content = json.loads(payload)["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise ValueError(f"reply content is {type(content).__name__}, "
                         f"not a string")
    return content


def llm_act(history, finished: list[str], kind: PromptKind, config: LlmConfig,
            transport) -> tuple[float, ChatExchange]:
    """Serialize -> prompt -> request -> parse -> clamp, with retries.

    ``finished`` is the episode's list of finished-row lines that
    ``serialize_observation`` keeps: ``[]`` at the first decision.

    Transport failures, undecodable or malformed responses and unparseable
    replies consume retries and finally resolve to the fallback dose; the
    last such error's class is recorded in the exchange. Any other exception
    is a programming error and propagates.
    """
    kind = PromptKind(kind)
    obs_text = serialize_observation(
        history, kind == PromptKind.PRIOR_MEAL_COT, finished)
    messages = build_prompt(kind, obs_text)
    parse = parse_cot if kind in _COT_KINDS else parse_zero_shot
    send = transport or http_transport

    raw = None
    error = None
    attempts = 0
    for attempt in range(MAX_RETRIES + 1):
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
    return FALLBACK_DOSE, ChatExchange(
        messages=messages, raw_response=raw, parsed_dose=None,
        parse_status=ParseStatus.FALLBACK_USED, attempts=attempts, error=error)
