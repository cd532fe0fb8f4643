"""Reference sink: reads and discards each connection, then acknowledges with one byte.

Started by ``hostref.SocketReference``; stopped with SIGINT.
"""

import signal
import socket
import sys


def main():
    listener = socket.create_server(("127.0.0.1", 0))
    print("listening on %s:%d" % listener.getsockname(), flush=True)
    buf = bytearray(256 << 10)
    while True:
        conn, _ = listener.accept()
        with conn:
            while conn.recv_into(buf):
                pass
            conn.sendall(b"k")


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        main()
    except KeyboardInterrupt:
        sys.exit(0)
