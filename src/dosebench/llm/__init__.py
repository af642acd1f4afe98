from .client import ChatExchange, LlmConfig, http_transport, llm_act
from .mock_server import ERROR_SENTINEL, ScriptedMockServer
from .prompts import (ParseStatus, PromptKind, build_prompt, clamp_action,
                      parse_cot, parse_zero_shot, serialize_observation)

__all__ = [
    "ChatExchange", "LlmConfig", "http_transport", "llm_act",
    "ERROR_SENTINEL", "ScriptedMockServer",
    "ParseStatus", "PromptKind", "build_prompt", "clamp_action",
    "parse_cot", "parse_zero_shot", "serialize_observation",
]
