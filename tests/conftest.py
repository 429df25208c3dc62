import socket
import ssl
import struct
import threading
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from backmap.catalog import compile_catalog, default_catalog_path, load_catalog
from backmap.ingest import NameMatches

TESTS_DIR = Path(__file__).parent
DATA_DIR = TESTS_DIR / "data"


@pytest.fixture(scope="session")
def catalog_profiles():
    return load_catalog(default_catalog_path())


@pytest.fixture(scope="session")
def catalog_patterns(catalog_profiles):
    return compile_catalog(catalog_profiles)


@pytest.fixture
def catalog_matches(catalog_patterns):
    """A new name-match memo over the catalog's patterns."""
    return NameMatches(catalog_patterns)


@pytest.fixture(scope="session")
def patterns_by_id(catalog_patterns):
    return {p.provider_id: p for p in catalog_patterns}


# --- local DNS fixture server -------------------------------------------------


class DnsFixtureServer:
    """Minimal UDP DNS responder: answers A/AAAA from a name map.

    Names mapped to the string "SERVFAIL" produce rcode 2; names mapped to
    "DROP" are silently ignored (client times out); unknown names get
    NXDOMAIN.
    """

    def __init__(self, answers: dict[str, list[str] | str]):
        self.answers = {k.lower().rstrip("."): v for k, v in answers.items()}
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.queries: list[tuple[float, str]] = []
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._running = True
        self._thread.start()

    def _serve(self):
        import time
        while self._running:
            try:
                self.sock.settimeout(0.2)
                data, addr = self.sock.recvfrom(4096)
            except (socket.timeout, OSError):
                continue
            qid = data[:2]
            offset = 12
            labels = []
            while data[offset]:
                length = data[offset]
                labels.append(data[offset + 1: offset + 1 + length].decode())
                offset += 1 + length
            offset += 1
            qtype = struct.unpack(">H", data[offset:offset + 2])[0]
            qname = ".".join(labels).lower()
            self.queries.append((time.monotonic(), qname))
            entry = self.answers.get(qname)
            if entry == "DROP":
                continue
            question = data[12:offset + 4]
            if entry == "SERVFAIL":
                header = qid + struct.pack(">HHHHH", 0x8182, 1, 0, 0, 0)
                self.sock.sendto(header + question, addr)
                continue
            answers = []
            for ip in entry or []:
                if ":" in ip and qtype == 28:
                    rdata = socket.inet_pton(socket.AF_INET6, ip)
                    rtype = 28
                elif ":" not in ip and qtype == 1:
                    rdata = socket.inet_pton(socket.AF_INET, ip)
                    rtype = 1
                else:
                    continue
                answers.append(struct.pack(">HHHIH", 0xC00C, rtype, 1, 60, len(rdata)) + rdata)
            rcode = 0 if entry is not None else 3
            flags = 0x8180 | rcode
            header = qid + struct.pack(">HHHHH", flags, 1, len(answers), 0, 0)
            self.sock.sendto(header + question + b"".join(answers), addr)

    def close(self):
        self._running = False
        self._thread.join(timeout=1)
        self.sock.close()


@pytest.fixture
def dns_server_factory():
    servers = []

    def make(answers):
        server = DnsFixtureServer(answers)
        servers.append(server)
        return server

    yield make
    for s in servers:
        s.close()


# --- local TLS fixture server ----------------------------------------------------


def make_self_signed(names: list[str], not_before=None, not_after=None):
    """Self-signed cert + key PEM bytes with the given SAN names."""
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import rsa
    from cryptography.x509.oid import NameOID

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    now = datetime.now(tz=timezone.utc)
    subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, names[0])])
    builder = (x509.CertificateBuilder()
               .subject_name(subject)
               .issuer_name(subject)
               .public_key(key.public_key())
               .serial_number(x509.random_serial_number())
               .not_valid_before(not_before or now - timedelta(days=1))
               .not_valid_after(not_after or now + timedelta(days=30))
               .add_extension(x509.SubjectAlternativeName(
                   [x509.DNSName(n) for n in names]), critical=False))
    cert = builder.sign(key, hashes.SHA256())
    return (cert.public_bytes(serialization.Encoding.PEM),
            key.private_bytes(serialization.Encoding.PEM,
                              serialization.PrivateFormat.TraditionalOpenSSL,
                              serialization.NoEncryption()))


class TlsFixtureServer:
    """One-shot-per-connection TLS endpoint presenting a fixed certificate."""

    def __init__(self, tmp_path: Path, names: list[str], require_client_cert=False):
        cert_pem, key_pem = make_self_signed(names)
        cert_file = tmp_path / f"cert-{id(self)}.pem"
        key_file = tmp_path / f"key-{id(self)}.pem"
        cert_file.write_bytes(cert_pem)
        key_file.write_bytes(key_pem)
        self.context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        self.context.load_cert_chain(cert_file, key_file)
        if require_client_cert:
            # TLS 1.2 keeps the client-certificate exchange inside the
            # handshake, so the probing client sees a handshake failure
            self.context.maximum_version = ssl.TLSVersion.TLSv1_2
            self.context.verify_mode = ssl.CERT_REQUIRED
            self.context.load_verify_locations(cert_file)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._running:
            try:
                self.sock.settimeout(0.2)
                conn, _ = self.sock.accept()
            except (socket.timeout, OSError):
                continue
            try:
                with self.context.wrap_socket(conn, server_side=True) as tls:
                    tls.settimeout(0.5)
                    try:
                        tls.recv(1)
                    except (socket.timeout, OSError):
                        pass
            except (ssl.SSLError, OSError):
                pass

    def close(self):
        self._running = False
        self._thread.join(timeout=1)
        self.sock.close()


@pytest.fixture
def tls_server_factory(tmp_path):
    servers = []

    def make(names, require_client_cert=False):
        server = TlsFixtureServer(tmp_path, names, require_client_cert)
        servers.append(server)
        return server

    yield make
    for s in servers:
        s.close()
