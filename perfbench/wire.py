"""A minimal blocking client on the public wire protocol.

The generator builds each frame with :func:`repro.core.protocol.encode_message`
itself, so it can time its own encode cost, and it reads every reply with
:func:`repro.core.protocol.recv_message`.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Any

from repro.core.protocol import Message, MessageType, encode_message, recv_message

perf_counter = time.perf_counter


@dataclass
class Reply:
    ok: bool
    value: Any           # decoded JSON, a tensor copy, or the error text
    final: bool = False  # stream replies: the session's final result


def decode_reply(message: Message) -> Reply:
    """Type one reply; anything but the expected answer is a failure."""
    if message.type == MessageType.APP_RESPONSE:
        return Reply(True, json.loads(message.text) if message.text else None)
    if message.type == MessageType.INFER_RESPONSE and message.tensor is not None:
        return Reply(True, message.tensor.copy())
    if message.type == MessageType.STREAM_RESULT:
        try:
            data = json.loads(message.text) if message.text else {}
        except ValueError:
            return Reply(False, f"undecodable stream result {message.text!r}")
        return Reply(True, data, final=message.stream_final)
    if message.type == MessageType.STREAM_OPEN:
        return Reply(True, {})
    return Reply(False, f"{message.type.name}: {message.text}")


class Wire:
    """One TCP connection; requests on it are serialized."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout_s: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout_s)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: seconds spent encoding frames on this connection
        self.encode_s = 0.0

    def call(self, message: Message) -> Reply:
        start = perf_counter()
        frame = encode_message(message)
        self.encode_s += perf_counter() - start
        self.sock.sendall(frame)
        return decode_reply(recv_message(self.sock))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def infer_message(model: str, tensor) -> Message:
    return Message(MessageType.INFER_REQUEST, name=model, tensor=tensor)


def stream_open(model: str, stream_id: int) -> Message:
    return Message(MessageType.STREAM_OPEN, name=model, stream_id=stream_id)


def stream_chunk(model: str, stream_id: int, seq: int, samples) -> Message:
    return Message(MessageType.STREAM_CHUNK, name=model, tensor=samples,
                   stream_id=stream_id, stream_seq=seq)


def stream_close(model: str, stream_id: int, seq: int) -> Message:
    return Message(MessageType.STREAM_CLOSE, name=model, stream_id=stream_id,
                   stream_seq=seq)


def metrics_dump(port: int) -> dict:
    """The gateway's fleet-merged metrics dump (the public METRICS frame)."""
    wire = Wire(port)
    try:
        wire.sock.sendall(encode_message(Message(MessageType.METRICS_REQUEST)))
        response = recv_message(wire.sock)
        return json.loads(response.text) if response.text else {"metrics": {}}
    finally:
        wire.close()
