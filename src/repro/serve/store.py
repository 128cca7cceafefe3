"""Content-addressed, write-once result store with eviction/GC.

Results live at ``results/<key[:2]>/<key>.pkl`` with a JSON sidecar of
metadata; ``key`` is :func:`repro.serve.jobspec.content_key` — identical
submissions share one entry, so repeated textbook-circuit traffic costs
one solve ever.  Four properties the service leans on:

* **durable + atomic** — the sidecar is published with
  :func:`repro.durable.atomic_write_json`; payloads are written to a
  temp file in the same directory, ``fsync``'d, hard-linked into place
  and the directory ``fsync``'d (:func:`repro.durable.fsync_dir`), so
  neither a crashed writer *nor a power loss* can leave a zero-length
  or torn ``.pkl`` that readers mistake for a whole one.  (``fsync``
  guarantees the bytes and the directory entry survive an OS crash; it
  cannot defend against disk firmware lying about write barriers — see
  DESIGN.md "Store durability contract".)
* **write-once** — :meth:`ResultStore.put` publishes via
  ``os.link`` of the fsync'd temp file, so the filesystem arbitrates
  racing writers atomically: exactly one wins, even across processes.
  At-least-once job execution means two workers may legitimately race
  to record the same (bit-identical, by the sweep executor's
  determinism contract) result; first write wins and the duplicate is
  dropped, which is what makes "exactly-once recorded result" literal;
* **self-healing reads** — :meth:`get`/:meth:`has` treat a corrupt
  entry (zero-length, missing/mismatched sidecar, unpicklable, bad
  MAC) as a **miss**: the bad files are quarantined under
  ``corrupt/`` and the job recomputes, instead of serving garbage or
  raising on every future submission of that key;
* **authenticated (optional)** — results are pickles, and unpickling
  attacker-controlled bytes executes arbitrary code, so the same trust
  boundary as PR 7's sweep checkpoints applies.  Setting
  :data:`RESULT_KEY_ENV` (or the sweep checkpoint key it falls back
  to) MACs every payload with HMAC-SHA256; reads verify and quarantine
  on a bad MAC — tampered entries are re-solved, not unpickled.

Long-lived roots are bounded by :meth:`ResultStore.gc`: mtime-LRU
eviction under ``max_bytes`` / ``max_age`` budgets (reads touch the
payload's mtime, so "least recently used" is literal), with two
protection rings — explicit **pins** (``<key>.pin`` files created by
:meth:`pin`, for roots an operator wants immortal) and the caller's
``pinned`` set (the service passes every in-flight job's key, so GC can
never evict a result a queued/leased/running/failed job is about to
claim).  ``python -m repro.serve gc`` is the operator entry point and
workers run it opportunistically between jobs when the service config
sets ``gc_max_bytes``/``gc_max_age``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import pickle
import tempfile
import time
import uuid
from typing import Dict, Iterator, Optional, Tuple

from ..durable import atomic_write_bytes, atomic_write_json, fsync_dir
from ..robust.faultinject import active_chaos

__all__ = [
    "RESULT_KEY_ENV",
    "GC_MAX_BYTES_ENV",
    "GC_MAX_AGE_ENV",
    "ResultStore",
    "atomic_write_bytes",
    "atomic_write_json",
]

#: Secret for result-payload HMACs; falls back to the sweep checkpoint
#: key so one deployment secret covers both persistence layers.
RESULT_KEY_ENV = "REPRO_SERVE_RESULT_KEY"
_FALLBACK_KEY_ENV = "REPRO_SWEEP_CHECKPOINT_KEY"

#: Default GC budgets for ``python -m repro.serve gc`` (explicit flags
#: always win; unset/empty means "no bound").
GC_MAX_BYTES_ENV = "REPRO_SERVE_GC_MAX_BYTES"
GC_MAX_AGE_ENV = "REPRO_SERVE_GC_MAX_AGE"

#: Orphaned sidecars / temp files younger than this are left alone —
#: they may belong to a put() still in flight in another process.
_ORPHAN_GRACE = 60.0


def _mac_key() -> Optional[bytes]:
    raw = os.environ.get(RESULT_KEY_ENV) or os.environ.get(_FALLBACK_KEY_ENV) or ""
    return raw.encode("utf-8") if raw else None


class ResultStore:
    """Directory-backed content-addressed store of solve results."""

    def __init__(self, root):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.corrupt_dir = os.path.join(self.root, "corrupt")

    # -- paths ---------------------------------------------------------

    def _paths(self, key: str) -> Tuple[str, str]:
        key = str(key)
        d = os.path.join(self.root, key[:2] or "xx")
        return os.path.join(d, key + ".pkl"), os.path.join(d, key + ".json")

    def _pin_path(self, key: str) -> str:
        return self._paths(key)[0][: -len(".pkl")] + ".pin"

    def has(self, key: str, verify: bool = True) -> bool:
        """Whether ``key`` holds a *trustworthy* entry.

        ``verify=True`` (the default — and what the service's submit
        fast path and the workers' cache check use) checks the payload
        against its sidecar checksum/MAC, quarantining on mismatch: a
        torn or zero-length ``.pkl`` left by a pre-fsync crash must
        read as a miss, or the write-once contract turns one bad write
        into a permanently poisoned cache key.
        """
        pkl_path, _ = self._paths(key)
        if not os.path.exists(pkl_path):
            return False
        if not verify:
            return True
        return self._verified_blob(key) is not None

    def __contains__(self, key: str) -> bool:
        return self.has(key)

    def keys(self):
        for sub in sorted(os.listdir(self.root)):
            d = os.path.join(self.root, sub)
            if not os.path.isdir(d) or sub == "corrupt":
                continue
            for name in sorted(os.listdir(d)):
                if name.endswith(".pkl"):
                    yield name[: -len(".pkl")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- write ---------------------------------------------------------

    def put(self, key: str, payload, meta: Optional[Dict] = None) -> bool:
        """Record ``payload`` under ``key``; returns False when the key
        already exists (write-once: the first recorded result wins).

        Durability walk: the sidecar (checksum/MAC) is atomically
        written first, then the payload goes to an fsync'd temp file
        that is **hard-linked** into place — ``os.link`` fails with
        ``EEXIST`` atomically, so two processes racing the same key get
        exactly one winner with no ``exists()``-then-``replace`` window.
        Racing writers hold bit-identical payloads (the executor's
        determinism contract), so whichever sidecar lands last carries
        the same checksum/MAC and only informational fields differ.
        """
        pkl_path, meta_path = self._paths(key)
        d = os.path.dirname(pkl_path)
        os.makedirs(d, exist_ok=True)
        blob = pickle.dumps(payload)
        side = dict(meta or {})
        side["sha256"] = hashlib.sha256(blob).hexdigest()
        mac_key = _mac_key()
        if mac_key is not None:
            side["mac"] = hmac.new(mac_key, blob, hashlib.sha256).hexdigest()

        chaos = active_chaos()
        fault = chaos.store_op("put") if chaos is not None else None
        if fault is not None and fault.kind == "error":
            raise fault.exc_type(f"{fault.message} (store put {key[:12]})")
        if fault is not None and fault.kind == "torn":
            # model the pre-fsync failure mode: a power loss that left a
            # half-written payload under the final name with a sidecar
            # recording the full checksum — then die like the writer did
            atomic_write_json(meta_path, side, fsync=False)
            with open(pkl_path, "wb") as fh:
                fh.write(blob[: max(1, len(blob) // 2)])
            raise fault.exc_type(f"{fault.message} (torn put {key[:12]})")

        if os.path.exists(pkl_path):
            return False  # cheap early out; os.link below still arbitrates
        atomic_write_json(meta_path, side)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            if fault is not None and fault.kind == "crash":
                # die after the temp write, before publication: the
                # final name must never exist (atomicity regression net)
                os._exit(fault.exit_code)
            try:
                os.link(tmp, pkl_path)
            except FileExistsError:
                return False  # concurrent writer won; identical payload
            fsync_dir(d)
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return True

    # -- read ----------------------------------------------------------

    def get_meta(self, key: str) -> Optional[Dict]:
        _, meta_path = self._paths(key)
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _verified_blob(self, key: str) -> Optional[Tuple[bytes, Dict]]:
        """Read + integrity-check one entry; quarantine on corruption.

        Returns ``(blob, meta)`` for a trustworthy entry, ``None`` for
        a miss.  Corruption — zero-length payload, missing/unreadable
        sidecar, checksum mismatch, missing/bad MAC when a key is
        configured — moves the files to ``corrupt/`` so the next
        submission of this key recomputes instead of failing forever.
        """
        pkl_path, _ = self._paths(key)
        try:
            with open(pkl_path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        meta = self.get_meta(key)
        if not blob or meta is None or not meta.get("sha256"):
            self.quarantine(key)
            return None
        if hashlib.sha256(blob).hexdigest() != meta["sha256"]:
            self.quarantine(key)
            return None
        mac_key = _mac_key()
        if mac_key is not None:
            mac = meta.get("mac")
            good = isinstance(mac, str) and hmac.compare_digest(
                mac, hmac.new(mac_key, blob, hashlib.sha256).hexdigest()
            )
            if not good:
                self.quarantine(key)
                return None
        return blob, meta

    def get_blob(self, key: str) -> Optional[Tuple[bytes, Dict]]:
        """Verified raw payload bytes + sidecar (``None`` on miss).

        This is what the HTTP front-end serves: the *server* never
        unpickles payloads, it ships verified bytes and the client
        re-verifies before unpickling on its own trust boundary.
        A successful read touches the payload's mtime (the GC's LRU
        clock).
        """
        out = self._verified_blob(key)
        if out is None:
            return None
        try:
            os.utime(self._paths(key)[0])
        except OSError:
            pass
        return out

    def get(self, key: str):
        """Load a payload; ``None`` on miss, corruption or MAC failure.

        A ``None`` from an existing key means "do not trust this entry"
        — the entry is quarantined and callers re-solve; they never
        unpickle unauthenticated bytes when a MAC key is configured.
        """
        out = self.get_blob(key)
        if out is None:
            return None
        blob, _ = out
        try:
            return pickle.loads(blob)
        except Exception:
            self.quarantine(key)
            return None

    # -- quarantine ----------------------------------------------------

    def quarantine(self, key: str) -> bool:
        """Move a bad entry's files to ``corrupt/``; True if any moved.

        Quarantined names carry a unique suffix (and lose the ``.pkl``
        extension) so :meth:`keys` / :meth:`gc` never mistake them for
        live entries, and repeated corruption of one key never
        collides.
        """
        pkl_path, meta_path = self._paths(key)
        os.makedirs(self.corrupt_dir, exist_ok=True)
        tag = f"{key}-{uuid.uuid4().hex[:8]}"
        moved = False
        for src, ext in ((pkl_path, ".pkl"), (meta_path, ".json")):
            try:
                os.replace(
                    src, os.path.join(self.corrupt_dir, tag + ext + ".corrupt")
                )
                moved = True
            except OSError:
                pass
        return moved

    # -- pinning -------------------------------------------------------

    def pin(self, key: str) -> None:
        """Protect ``key`` from GC eviction until :meth:`unpin`."""
        path = self._pin_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8"):
            pass

    def unpin(self, key: str) -> None:
        try:
            os.remove(self._pin_path(key))
        except OSError:
            pass

    def is_pinned(self, key: str) -> bool:
        return os.path.exists(self._pin_path(key))

    # -- accounting / GC -----------------------------------------------

    def entries(self) -> Iterator[Dict]:
        """Yield one dict per live entry: key, size, mtime, pinned."""
        for key in self.keys():
            pkl_path, meta_path = self._paths(key)
            try:
                st = os.stat(pkl_path)
            except OSError:
                continue  # evicted/quarantined under us
            size = st.st_size
            try:
                size += os.path.getsize(meta_path)
            except OSError:
                pass
            yield {
                "key": key,
                "size": size,
                "mtime": st.st_mtime,
                "pinned": self.is_pinned(key),
            }

    def total_bytes(self) -> int:
        return sum(e["size"] for e in self.entries())

    def _sweep_strays(self, now: float, dry_run: bool) -> Dict[str, int]:
        """Remove aged orphan sidecars and abandoned temp files."""
        removed = {"orphan_meta": 0, "tmp": 0}
        for sub in sorted(os.listdir(self.root)):
            d = os.path.join(self.root, sub)
            if not os.path.isdir(d) or sub == "corrupt":
                continue
            for name in sorted(os.listdir(d)):
                path = os.path.join(d, name)
                kind = None
                if name.startswith(".tmp-"):
                    kind = "tmp"
                elif name.endswith(".json") and not os.path.exists(
                    path[: -len(".json")] + ".pkl"
                ):
                    kind = "orphan_meta"
                if kind is None:
                    continue
                try:
                    if now - os.path.getmtime(path) <= _ORPHAN_GRACE:
                        continue  # may belong to an in-flight put()
                    if not dry_run:
                        os.remove(path)
                    removed[kind] += 1
                except OSError:
                    continue
        return removed

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age: Optional[float] = None,
        pinned=(),
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> Dict:
        """Bound the store: evict by age, then mtime-LRU down to size.

        ``max_age`` evicts entries whose payload mtime (touched on
        every verified read) is older than ``now - max_age``;
        ``max_bytes`` then evicts least-recently-used entries until the
        live total fits the budget.  Entries that are pinned on disk
        (:meth:`pin`) or named in ``pinned`` (the service passes every
        in-flight job's key) are never evicted — when pins alone exceed
        ``max_bytes`` the store stays over budget and the stats say so
        (``over_budget``).  ``dry_run`` computes the same plan without
        deleting.  Returns an accounting dict (see keys below).
        """
        now = time.time() if now is None else float(now)
        pinned = set(pinned)
        plan = sorted(self.entries(), key=lambda e: e["mtime"])  # LRU first
        bytes_before = sum(e["size"] for e in plan)
        evicted, evicted_bytes, kept_pinned = [], 0, 0
        live_bytes = bytes_before

        def protected(e):
            return e["pinned"] or e["key"] in pinned

        victims = []
        if max_age is not None and max_age > 0:
            for e in plan:
                if now - e["mtime"] <= max_age:
                    continue
                if protected(e):
                    kept_pinned += 1
                    continue
                victims.append(e)
        if max_bytes is not None and max_bytes > 0:
            doomed = {e["key"] for e in victims}
            projected = live_bytes - sum(e["size"] for e in victims)
            for e in plan:
                if projected <= max_bytes:
                    break
                if e["key"] in doomed:
                    continue
                if protected(e):
                    kept_pinned += 1
                    continue
                victims.append(e)
                projected -= e["size"]
        for e in victims:
            if not dry_run:
                pkl_path, meta_path = self._paths(e["key"])
                for path in (pkl_path, meta_path):
                    try:
                        os.remove(path)
                    except OSError:
                        pass
            evicted.append(e["key"])
            evicted_bytes += e["size"]
            live_bytes -= e["size"]
        strays = self._sweep_strays(now, dry_run)
        return {
            "scanned": len(plan),
            "bytes_before": bytes_before,
            "bytes_after": live_bytes,
            "evicted": len(evicted),
            "evicted_keys": evicted,
            "evicted_bytes": evicted_bytes,
            "kept_pinned": kept_pinned,
            "over_budget": bool(
                max_bytes is not None and max_bytes > 0 and live_bytes > max_bytes
            ),
            "orphan_meta_removed": strays["orphan_meta"],
            "tmp_removed": strays["tmp"],
            "dry_run": bool(dry_run),
        }
