import base64
import contextlib
import dataclasses
import http.client
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from dosebench import harness
from dosebench.env import StepRecord
from dosebench.llm import (ERROR_SENTINEL, LlmConfig, ParseStatus, PromptKind, ScriptedMockServer,
                           build_prompt, clamp_action, client, http_transport,
                           llm_act, parse_cot, parse_zero_shot, prompts,
                           serialize_observation)

GOLDEN_DIR = Path(__file__).parent / "golden"

# Fixed synthetic history used for the golden prompt files.
FIXED_HISTORY = [
    StepRecord(step=0, clock=300, bg_true=150.0, bg_sensor=150.23,
               rate=0.0, dose=0.0, meal_carbs=0.0, reward=0.0),
    StepRecord(step=1, clock=315, bg_true=148.5, bg_sensor=148.96,
               rate=1.0, dose=0.25, meal_carbs=0.0, reward=0.0),
    StepRecord(step=2, clock=330, bg_true=152.0, bg_sensor=151.4,
               rate=0.5, dose=0.125, meal_carbs=27.0, reward=0.0),
]


def render_prompt(kind):
    obs = serialize_observation(
        FIXED_HISTORY, kind == PromptKind.PRIOR_MEAL_COT, [])
    messages = build_prompt(kind, obs)
    return ("=== system ===\n" + messages[0]["content"]
            + "\n=== user ===\n" + messages[1]["content"] + "\n")


def test_serialize_observation_golden_line():
    line = serialize_observation([FIXED_HISTORY[1]], False, [])
    assert line == ("Day 1, Time: 05:15:00, glucose: 148.96 mg/dL, "
                    "insulin rate: 1.0000 unit/hour, insulin dose: 0.25 unit.")


def test_serialize_observation_initial_and_meal_annotations():
    text = serialize_observation(FIXED_HISTORY, True, [])
    lines = text.split("\n")
    assert len(lines) == 3
    assert "Time: 05:00:00 (initial measurement)" in lines[0]
    assert "(initial measurement)" not in lines[1]
    assert lines[2].endswith(", meal taken.")
    # Meal clause only appears when requested; amount stays hidden.
    plain = serialize_observation(FIXED_HISTORY, False, [])
    assert "meal" not in plain
    assert "27" not in text
    with pytest.raises(ValueError):
        serialize_observation([], False, [])


def test_build_prompt_structure():
    messages = build_prompt(PromptKind.BASE_ZERO_SHOT, "OBS")
    assert [m["role"] for m in messages] == ["system", "user"]
    assert "clinical specialist" in messages[0]["content"]
    assert "###Observations\nOBS\n" in messages[1]["content"]
    assert messages[1]["content"].endswith("###Answer")
    cot = build_prompt(PromptKind.PRIOR_COT, "OBS")
    assert cot[1]["content"].endswith("Let's think step by step.")
    assert "Hidden Variables" in cot[0]["content"]
    assert "Hidden Variables" not in messages[0]["content"]


@pytest.mark.parametrize("kind", list(PromptKind))
def test_golden_prompts_byte_stable(kind):
    golden = (GOLDEN_DIR / f"prompt_{kind.value}.txt").read_bytes()
    assert render_prompt(kind).encode() == golden


def test_parse_zero_shot():
    assert parse_zero_shot("2.5") == 2.5
    assert parse_zero_shot(" 0 ") == 0.0
    assert parse_zero_shot("I would give 3 units") == 3.0
    assert parse_zero_shot("dose -1.5 now") == -1.5
    assert parse_zero_shot("no numbers here") is None
    assert parse_zero_shot("") is None


def test_parse_cot_tagged_answers():
    assert parse_cot("reasoning... <ans>2.84</ans>") == 2.84
    assert parse_cot("<ans>1</ans> then revised <ans>4.5</ans>") == 4.5
    # Malformed last tag: well-formed earlier tag wins.
    assert parse_cot("<ans>2</ans> junk <ans>lots</ans>") == 2.0
    # Multi-line content inside the tag.
    assert parse_cot("<ans>\n3.5\n</ans>") == 3.5


def test_parse_cot_tail_fallback():
    # No usable tag: first number inside the trailing 200-char window.
    assert parse_cot("the answer is 7 units") == 7.0
    filler = "x" * 300
    assert parse_cot("early 9 then " + filler + " final 2") == 2.0
    assert parse_cot("1.25 " + filler) is None  # number outside the window
    assert parse_cot("no digits at all") is None


def test_clamp_action():
    assert clamp_action(130.67) == (9.0, ParseStatus.CLAMPED)
    assert clamp_action(-0.5) == (0.0, ParseStatus.CLAMPED)
    assert clamp_action(4.0) == (4.0, ParseStatus.OK)
    assert clamp_action(0.0) == (0.0, ParseStatus.OK)
    assert clamp_action(9.0) == (9.0, ParseStatus.OK)
    assert clamp_action(float("nan")) == (0.0, ParseStatus.UNPARSEABLE)


def test_llm_config_validation_and_token_budgets():
    assert client.tokens_for(PromptKind.BASE_ZERO_SHOT) == 16
    assert client.tokens_for(PromptKind.PRIOR_ZERO_SHOT) == 16
    assert client.tokens_for(PromptKind.PRIOR_COT) == 1024
    assert client.tokens_for(PromptKind.PRIOR_MEAL_COT) == 1024
    assert (client.MAX_RETRIES, client.FALLBACK_DOSE) == (2, 0.0)
    with pytest.raises(ValueError):
        LlmConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        LlmConfig(base_url="").resolved_base_url()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_llm_config_requires_a_finite_temperature_and_timeout(value):
    # Each rejected value would make every request fail before it is sent,
    # so every decision would silently fall back.
    if value == 0.0:
        assert LlmConfig(temperature=value).temperature == 0.0
    else:
        with pytest.raises(ValueError, match="temperature"):
            LlmConfig(temperature=value)
    with pytest.raises(ValueError, match="request_timeout"):
        LlmConfig(request_timeout=value)


@pytest.mark.parametrize("workers", [0, -1, math.nan])
def test_llm_config_refuses_fewer_than_one_worker(workers):
    # A pool of NaN threads would start none, and its first round would
    # wait for ever.
    with pytest.raises(ValueError, match="workers must be at least 1"):
        LlmConfig(workers=workers)


def test_llm_act_happy_path():
    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                         transport=lambda m, c, k: "1.5")
    assert action == 1.5
    assert ex.parse_status is ParseStatus.OK
    assert ex.attempts == 1
    assert ex.raw_response == "1.5"


def test_llm_act_clamps_out_of_range():
    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.PRIOR_COT, cfg,
                         transport=lambda m, c, k: "<ans>130.67</ans>")
    assert action == 9.0
    assert ex.parse_status is ParseStatus.CLAMPED
    assert ex.parsed_dose == 130.67


def test_llm_act_retries_then_succeeds():
    replies = iter(["garbage with no digits", "2.0"])
    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                         transport=lambda m, c, k: next(replies))
    assert action == 2.0
    assert ex.attempts == 2


def test_llm_act_falls_back_after_exhausted_retries():
    calls = []

    def junk(messages, config, kind):
        calls.append(1)
        return "no numbers"

    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                         transport=junk)
    assert action == 0.0
    assert ex.parse_status is ParseStatus.FALLBACK_USED
    assert ex.attempts == 3
    assert len(calls) == 3


def test_llm_act_survives_transport_exceptions():
    def boom(messages, config, kind):
        raise ConnectionError("down")

    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                         transport=boom)
    assert action == 0.0
    assert ex.parse_status is ParseStatus.FALLBACK_USED
    assert ex.raw_response is None
    assert ex.attempts == 3
    assert ex.error == "ConnectionError"


def test_llm_act_records_error_of_a_retried_request():
    replies = iter([TimeoutError("slow"), "2.0"])

    def flaky(messages, config, kind):
        reply = next(replies)
        if isinstance(reply, Exception):
            raise reply
        return reply

    cfg = LlmConfig(base_url="http://unused")
    action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                         transport=flaky)
    assert action == 2.0
    assert ex.parse_status is ParseStatus.OK
    assert ex.attempts == 2
    assert ex.error == "TimeoutError"


def test_llm_act_propagates_programming_errors():
    calls = []

    def broken(messages, config, kind):
        calls.append(1)
        raise AttributeError("no such attribute")

    cfg = LlmConfig(base_url="http://unused")
    with pytest.raises(AttributeError):
        llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                transport=broken)
    assert len(calls) == 1


@pytest.fixture()
def mock_server():
    with ScriptedMockServer(["1.0"]) as server:
        yield server


def _post(base_url, body: bytes):
    """Status and JSON payload of one raw POST to the chat endpoint."""
    conn = http.client.HTTPConnection(base_url.removeprefix("http://"),
                                      timeout=5)
    try:
        conn.request("POST", "/v1/chat/completions", body,
                     {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def test_mock_server_wire_format(mock_server):
    body = {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
    status, payload = _post(mock_server.base_url, json.dumps(body).encode())
    assert status == 200
    payload = json.loads(payload)
    assert payload["choices"][0]["message"]["content"] == "1.0"
    assert payload["model"] == "m"
    assert mock_server.requests[-1]["model"] == "m"

    assert _post(mock_server.base_url, b"not json")[0] == 400
    assert _post(mock_server.base_url,
                 json.dumps({"messages": []}).encode())[0] == 400


def test_mock_server_error_sentinel_and_cycling():
    with ScriptedMockServer([ERROR_SENTINEL, "3.0"]) as server:
        cfg = LlmConfig(base_url=server.base_url)
        action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                             transport=None)
        assert action == 3.0
        assert ex.attempts == 2          # 500 consumed the first attempt
        # Script cycles: next request hits the sentinel again.
        action, _ = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT, cfg,
                            transport=None)
        assert action == 3.0


def test_http_transport_env_configuration(mock_server, monkeypatch):
    monkeypatch.setenv("DOSEBENCH_LLM_BASE_URL", mock_server.base_url)
    monkeypatch.setenv("DOSEBENCH_LLM_API_KEY", "sekrit")
    cfg = LlmConfig()  # base URL comes from the environment
    reply = http_transport(build_prompt(PromptKind.BASE_ZERO_SHOT, "OBS"),
                           cfg, PromptKind.BASE_ZERO_SHOT)
    assert reply == "1.0"
    sent = mock_server.requests[-1]
    assert sent["max_tokens"] == 16
    assert sent["temperature"] == 0.7


def test_mock_server_rejects_empty_script():
    with pytest.raises(ValueError):
        ScriptedMockServer([])


def _send(server):
    kind = PromptKind.BASE_ZERO_SHOT
    return http_transport(build_prompt(kind, "OBS"),
                          LlmConfig(base_url=server.base_url), kind)


def test_http_transport_keeps_one_connection_open():
    with ScriptedMockServer(["1.0"]) as server:
        accepted = []
        get_request = server._httpd.get_request
        server._httpd.get_request = lambda: accepted.append(1) or get_request()
        replies = [_send(server) for _ in range(20)]
    assert replies == ["1.0"] * 20
    assert len(server.requests) == 20
    assert len(accepted) == 1


def test_http_transport_closes_the_session_of_a_previous_base_url():
    with ScriptedMockServer(["1.0"]) as first, \
            ScriptedMockServer(["2.0"]) as second:
        assert _send(first) == "1.0"
        assert len(first._connections) == 1
        assert _send(second) == "2.0"
        deadline = time.monotonic() + 5
        while first._connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not first._connections


def test_stop_hangs_up_an_idle_keep_alive_connection():
    server = ScriptedMockServer(["1.0"]).start()
    assert _send(server) == "1.0"  # the pooled connection now sits idle
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()
    # Left open, the connection's handler thread would go on answering it.
    with pytest.raises(OSError):
        _send(server)
    assert len(server.requests) == 1


def test_stop_right_after_a_request_returns_quickly():
    server = ScriptedMockServer(["1.0"]).start()
    assert _send(server) == "1.0"
    start = time.perf_counter()
    server.stop()
    assert time.perf_counter() - start < 0.25


def test_http_transport_honours_the_proxy_environment(monkeypatch):
    for var in ("http_proxy", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    with ScriptedMockServer(["1.0"]) as server:
        # A new base URL gets a new connection, which reads the environment.
        with pytest.raises(OSError):
            _send(server)
    assert server.requests == []


def _clear_proxies(monkeypatch):
    for var in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(var, raising=False)


def test_http_transport_skips_the_proxy_for_a_no_proxy_host(monkeypatch):
    _clear_proxies(monkeypatch)
    monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    with ScriptedMockServer(["1.0"]) as server:
        assert _send(server) == "1.0"
    assert len(server.requests) == 1


@contextlib.contextmanager
def _http10_chat_server(content="1.0"):
    """An HTTP/1.0 server that closes each connection after its reply.

    Every request is answered with ``content``; the request headers are
    recorded.
    """
    seen = []

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            seen.append(self.headers)
            body = json.dumps({"choices": [{"message": {
                "role": "assistant", "content": content}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        host, port = httpd.server_address
        yield f"http://{host}:{port}", seen
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_http_transport_reconnects_to_a_server_that_closes_connections():
    with _http10_chat_server() as (base_url, seen):
        cfg = LlmConfig(base_url=base_url)
        for _ in range(5):
            action, ex = llm_act(FIXED_HISTORY, [], PromptKind.BASE_ZERO_SHOT,
                                 cfg, transport=None)
            assert (action, ex.attempts, ex.error) == (1.0, 1, None)
    assert len(seen) == 5


def test_a_reply_with_null_content_is_a_failed_attempt():
    # Like a reply without content, it costs an attempt, not the episode.
    with _http10_chat_server(content=None) as (base_url, seen):
        action, ex = llm_act(FIXED_HISTORY, [], PromptKind.PRIOR_COT,
                             LlmConfig(base_url=base_url), transport=None)
    assert action == client.FALLBACK_DOSE
    assert ex.parse_status is ParseStatus.FALLBACK_USED
    assert (ex.attempts, ex.error) == (client.MAX_RETRIES + 1, "ValueError")
    assert len(seen) == client.MAX_RETRIES + 1


def test_http_transport_times_out_on_a_silent_server():
    # The kernel completes the handshake for a listening socket; nothing
    # ever reads the request or answers it.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        host, port = silent.getsockname()
        cfg = LlmConfig(base_url=f"http://{host}:{port}", request_timeout=0.2)
        kind = PromptKind.BASE_ZERO_SHOT
        start = time.perf_counter()
        with pytest.raises(OSError):
            http_transport(build_prompt(kind, "OBS"), cfg, kind)
        assert time.perf_counter() - start < 1.5


def test_http_transport_sends_the_api_key_as_a_bearer_token(monkeypatch,
                                                             tmp_path):
    monkeypatch.setenv("NETRC", str(tmp_path / "absent-netrc"))
    monkeypatch.setenv("DOSEBENCH_LLM_API_KEY", "sekrit")
    with _http10_chat_server() as (base_url, seen):
        kind = PromptKind.BASE_ZERO_SHOT
        assert http_transport(build_prompt(kind, "OBS"),
                              LlmConfig(base_url=base_url), kind) == "1.0"
    assert seen[0]["Authorization"] == "Bearer sekrit"
    assert seen[0]["Content-Type"] == "application/json"


def test_netrc_basic_auth_takes_precedence_over_the_api_key(monkeypatch,
                                                            tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login alice password s3cret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("DOSEBENCH_LLM_API_KEY", "sekrit")
    with _http10_chat_server() as (base_url, seen):
        kind = PromptKind.BASE_ZERO_SHOT
        assert http_transport(build_prompt(kind, "OBS"),
                              LlmConfig(base_url=base_url), kind) == "1.0"
    token = base64.b64encode(b"alice:s3cret").decode()
    assert seen[0]["Authorization"] == f"Basic {token}"


def _episode(rates, meal_steps=()):
    """Yields a growing history the way the env builds it: the current row
    is acted on (rate and dose written) before the next row is appended."""
    history = [StepRecord(step=0, clock=300, bg_true=150.0, bg_sensor=150.23,
                          rate=0.0, dose=0.0, meal_carbs=0.0, reward=0.0)]
    for step, rate in enumerate(rates, start=1):
        yield history
        history[-1].rate = rate
        history[-1].dose = rate / 60.0 * 15
        history.append(StepRecord(
            step=step, clock=300 + 15 * step, bg_true=150.0 - step,
            bg_sensor=150.0 - step + 0.37, rate=0.0, dose=0.0,
            meal_carbs=27.0 if step in meal_steps else 0.0, reward=0.0))
    yield history


@pytest.mark.parametrize("include_meals", [False, True])
def test_serialize_observation_matches_a_fresh_serialization(include_meals):
    # -0.0 prints as -0.0000: a parsed "-0" is clamped to -0.0, not 0.0.
    rates = [0.0, -0.0, 1.2, -0.0, 9.0, 0.5] * 3
    texts, snapshots, finished = [], [], []
    for history in _episode(rates, meal_steps={2, 7}):
        texts.append(serialize_observation(history, include_meals, finished))
        snapshots.append([dataclasses.replace(rec) for rec in history])
    assert "insulin rate: -0.0000 unit/hour, insulin dose: -0.00 unit" \
        in texts[-1]
    for text, snapshot in zip(texts, snapshots):
        assert text == serialize_observation(snapshot, include_meals, [])


def test_serialize_observation_formats_each_finished_line_once(monkeypatch):
    calls = []
    format_clock = prompts.format_clock
    monkeypatch.setattr(prompts, "format_clock",
                        lambda clock: calls.append(clock) or format_clock(clock))
    decisions, finished = 0, []
    for history in _episode([1.0] * 63):
        serialize_observation(history, True, finished)
        decisions += 1
    # Each call formats the current row; each finished row is formatted once.
    assert decisions == 64
    assert len(calls) == 2 * decisions - 1
    assert len(finished) == decisions - 1


@pytest.mark.parametrize("workers, seeds, repeats", [
    pytest.param(1, (1, 100), 1, id="1"),
    pytest.param(2, (1, 100), 1, id="2"),
    pytest.param(1, (1, 100, 1000, 10000, 7), 5, id="300-episodes"),
])
def test_lockstep_formats_each_finished_line_once_per_episode(
        workers, seeds, repeats, monkeypatch):
    # A lock-step round asks for all its lanes' prompts in turn, however
    # many lanes there are; each lane's finished rows are formatted once.
    calls = []
    line = prompts._line
    monkeypatch.setattr(prompts, "_line",
                        lambda rec, meals: calls.append(rec) or line(rec, meals))
    spec = harness.PolicySpec(kind="llm", llm_kind="meal-cot",
                              llm_config=LlmConfig(workers=workers),
                              llm_transport=lambda *_: "<ans>1.2</ans>")
    protocol = harness.EvalProtocol(seeds=seeds, repeats_per_seed=repeats)
    records = harness.run_protocol(spec, protocol)
    assert len(records) == 12 * len(seeds) * repeats
    assert all(r.error is None and len(r.actions) == 64 for r in records)
    # Each decision formats its current row; each finished row once.
    assert len(calls) == sum(2 * len(r.actions) - 1 for r in records)


def test_serialize_observation_of_interleaved_histories():
    # Round-robin over more histories than the paper's 240 episodes, each
    # with its own list: every text is the fresh serialization.
    n = 259
    episodes = [_episode([0.5 * (i % 7)] * 3) for i in range(n)]
    finished = [[] for _ in range(n)]
    for _ in range(4):
        for history, lines in zip(map(next, episodes), finished):
            snapshot = [dataclasses.replace(rec) for rec in history]
            assert serialize_observation(history, True, lines) \
                == serialize_observation(snapshot, True, [])
