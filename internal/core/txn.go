package core

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"segshare/internal/audit"
	"segshare/internal/journal"
	"segshare/internal/pfs"
	"segshare/internal/rollback"
	"segshare/internal/store"
)

// This file makes every logical operation atomic-on-recovery. A mutation
// runs inside mutate(), which stages all putBlob/deleteBlob calls in an
// opCtx instead of issuing them; when the operation's function returns
// successfully, the staged set is sealed into one journal intent,
// committed, applied to the backends, and marked applied. A crash or
// fault between any two backend writes is repaired by recoverJournal:
// committed intents are re-applied (roll forward), an intent torn during
// its commit is discarded (roll back). Without a journal, mutate still
// runs — writes go straight through as before, only the compensation
// hooks (dedup refcounts) keep their ordering guarantees.

// byRefThreshold is the plaintext size (encoded rollback header plus
// body) from which a staged put is journaled by reference: its body is
// sealed once into a staging object before the intent commits, and the
// intent records only the staging name, sealed length and pfs footer.
// Smaller writes (directory, ACL and group files, small content) stay
// inline in the record, where one sealed journal object beats an extra
// store round-trip.
const byRefThreshold = 256 << 10

// stagePrefix is the reserved name prefix of staging objects. It cannot
// collide with logical names (which start with "/" or a group-store
// name) nor with hidden storage names (hex).
const stagePrefix = "!stage:"

// stagedPut is one buffered blob write. Header and body are kept as
// plaintext (the encoded rollback header and the logical body). An
// inline write is encrypted at apply time, so a recovery replay produces
// a fresh valid ciphertext; a by-reference write is sealed into its
// staging object just before the commit (sealLarge).
type stagedPut struct {
	ns     *namespace
	name   string
	hdrEnc []byte
	body   []byte
	// needsToken marks a namespace-root write: the root-guard commit (and
	// the token it yields) is deferred to apply time, so an aborted
	// operation never advances the guard past the stored root.
	needsToken bool

	// stage, sealedLen and footer describe the sealed staging object of a
	// by-reference write; stage is empty for inline writes.
	stage     string
	sealedLen int64
	footer    []byte
}

// byRef reports whether the put is journaled by reference. Root writes
// stay inline: their guard token is only assigned at apply time.
func (sp *stagedPut) byRef() bool {
	return !sp.needsToken && len(sp.hdrEnc)+len(sp.body) >= byRefThreshold
}

type stagedDel struct {
	ns   *namespace
	name string
}

// opCtx is one in-flight logical operation: the staged write/delete set
// plus compensation hooks. The lock manager serializes mutations whenever
// staging is on (coupled mode); recovery additionally waits out every
// commit window on its own (fmShared.commitMu), so its safety does not
// rest on the request lock plan.
type opCtx struct {
	op      string
	staging bool

	order    []string
	puts     map[string]*stagedPut
	delOrder []string
	dels     map[string]*stagedDel

	// onCommit runs after the operation is durably applied; onAbort runs
	// when it failed before its intent committed. Used for dedup refcount
	// compensation, which cannot ride in the journal (Release is not
	// idempotent).
	onCommit []func()
	onAbort  []func()
}

// stagePut buffers one write. It takes ownership of body (see putBlob).
func (tx *opCtx) stagePut(ns *namespace, name string, hdr *rollback.Header, body []byte, needsToken bool) {
	key := treeID(ns, name)
	if _, ok := tx.dels[key]; ok {
		// Delete-then-recreate within one operation: the recreate wins.
		delete(tx.dels, key)
	}
	var hdrEnc []byte
	if hdr != nil {
		hdrEnc = hdr.Encode()
	}
	if _, ok := tx.puts[key]; !ok {
		tx.order = append(tx.order, key)
	}
	tx.puts[key] = &stagedPut{
		ns:         ns,
		name:       name,
		hdrEnc:     hdrEnc,
		body:       body,
		needsToken: needsToken,
	}
}

func (tx *opCtx) stageDelete(ns *namespace, name string) {
	key := treeID(ns, name)
	// A staged put is dropped rather than shadowed — but the backend may
	// hold a pre-existing object under the same name (put-then-delete of
	// an existing file), so the delete is recorded regardless.
	delete(tx.puts, key)
	if _, ok := tx.dels[key]; !ok {
		tx.delOrder = append(tx.delOrder, key)
	}
	tx.dels[key] = &stagedDel{ns: ns, name: name}
}

// staged returns the staged state of a name: the buffered put, or
// deleted=true when a staged delete shadows the backend object.
func (tx *opCtx) staged(ns *namespace, name string) (sp *stagedPut, deleted bool) {
	key := treeID(ns, name)
	if sp, ok := tx.puts[key]; ok {
		return sp, false
	}
	if _, ok := tx.dels[key]; ok {
		return nil, true
	}
	return nil, false
}

// records converts the staged set into journal intent records: writes in
// first-staged order, then deletes.
func (tx *opCtx) records() ([]journal.Write, []journal.Delete) {
	var writes []journal.Write
	for _, key := range tx.order {
		sp, ok := tx.puts[key]
		if !ok {
			continue
		}
		w := journal.Write{Store: sp.ns.kind, Name: sp.name}
		if sp.stage != "" {
			w.Stage, w.SealedLen, w.Footer = sp.stage, sp.sealedLen, sp.footer
		} else {
			w.Header, w.Body, w.NeedsToken = sp.hdrEnc, sp.body, sp.needsToken
		}
		writes = append(writes, w)
	}
	var dels []journal.Delete
	for _, key := range tx.delOrder {
		d, ok := tx.dels[key]
		if !ok {
			continue
		}
		dels = append(dels, journal.Delete{Store: d.ns.kind, Name: d.name})
	}
	return writes, dels
}

func (tx *opCtx) runCommitHooks() {
	for _, fn := range tx.onCommit {
		fn()
	}
}

func (tx *opCtx) runAbortHooks() {
	for i := len(tx.onAbort) - 1; i >= 0; i-- {
		tx.onAbort[i]()
	}
}

// staging reports whether the active operation buffers writes for a
// journal intent (used by the putBlob/deleteBlob chokepoints and the
// relation caches, which must not cache uncommitted state).
func (fm *fileManager) staging() bool {
	return fm.tx != nil && fm.tx.staging
}

// afterOp schedules fn for after the operation durably commits. Outside
// any operation context (direct fileManager use in tests), the work has
// already hit the backends, so fn runs immediately.
func (fm *fileManager) afterOp(fn func()) {
	if fm.tx != nil {
		fm.tx.onCommit = append(fm.tx.onCommit, fn)
		return
	}
	fn()
}

// onOpAbort schedules fn for when the operation aborts before its intent
// committed. Outside an operation context callers compensate inline.
func (fm *fileManager) onOpAbort(fn func()) {
	if fm.tx != nil {
		fm.tx.onAbort = append(fm.tx.onAbort, fn)
	}
}

// mutate runs one logical operation. Re-entrant calls join the active
// operation (directory moves recurse through movePath/removePath). With
// a journal, writes stage into an intent that commits before any backend
// object changes; without one, fn's writes apply directly and only the
// hook ordering is provided.
func (fm *fileManager) mutate(op string, fn func() error) error {
	if fm.tx != nil {
		return fn()
	}
	// Cancellation is honored here and immediately before the intent
	// commit below — and nowhere later. A client that disconnects before
	// its mutation becomes durable saves the work; once the intent is
	// committed the operation always completes (or is finished by
	// recovery), preserving atomicity.
	if err := fm.ctxErr(); err != nil {
		return err
	}
	// Degraded read-only mode: while a store breaker is open, reject the
	// mutation before any trusted state changes. The gate admits breaker
	// probes itself (MutationsAllowed), so the mutations that do pass are
	// exactly the ones that can close the breaker again.
	if fm.shared.degraded != nil {
		if err := fm.shared.degraded(); err != nil {
			fm.rs.MarkDegraded()
			return err
		}
	}
	// A failure after an intent committed leaves the operation half
	// applied; finish it before accepting new work.
	if fm.shared.journalDirty.Load() {
		if err := fm.recoverJournal(recoverOpts{strict: true, validate: fm.rollbackOn}); err != nil {
			return err
		}
	}
	tx := &opCtx{
		op:      op,
		staging: fm.journal != nil,
		puts:    make(map[string]*stagedPut),
		dels:    make(map[string]*stagedDel),
	}
	fm.tx = tx
	defer func() { fm.tx = nil }()

	if err := fn(); err != nil {
		tx.runAbortHooks()
		return err
	}
	if !tx.staging || (len(tx.order) == 0 && len(tx.delOrder) == 0) {
		tx.runCommitHooks()
		return nil
	}

	// Last cancellation point: nothing durable exists yet, so aborting
	// here rolls back cleanly. After Commit returns, the op is applied
	// unconditionally — fm.ctx is never consulted again.
	if err := fm.ctxErr(); err != nil {
		tx.runAbortHooks()
		return err
	}
	// From here until the intent is marked applied, recovery must not run
	// (see fmShared.commitMu).
	fm.shared.commitMu.RLock()
	defer fm.shared.commitMu.RUnlock()
	// Large bodies are sealed and staged before the commit (sealing still
	// observes the context); only staging objects exist until Commit
	// returns, and abandoning them rolls back cleanly.
	if err := fm.sealLarge(tx); err != nil {
		fm.dropStaged(tx)
		tx.runAbortHooks()
		return err
	}
	writes, deletes := tx.records()
	commitStart := time.Now()
	seq, err := fm.journal.Commit(op, writes, deletes)
	fm.rs.AddJournalCommit(time.Since(commitStart))
	if err != nil {
		// The intent never became durable: the operation rolls back (no
		// live backend object was touched yet).
		fm.dropStaged(tx)
		tx.runAbortHooks()
		return err
	}
	if err := fm.applyIntent(writes, deletes, false); err != nil {
		// The intent IS durable: recovery will finish the operation, so
		// commit hooks must not run yet and abort hooks must not run at
		// all. Refuse further mutations until the replay succeeds.
		fm.shared.journalDirty.Store(true)
		return err
	}
	if err := fm.journal.MarkApplied(seq); err != nil {
		// The operation applied fully; only the journal cleanup failed.
		// Report success, but force a (harmless, idempotent) replay before
		// the next mutation.
		fm.shared.journalDirty.Store(true)
	}
	tx.runCommitHooks()
	return nil
}

// sealLarge seals every by-reference put under its final name's file
// key and ID and stores the blob under a fresh, unpredictable staging
// name in the namespace's own backend. The name is recorded before the
// Put so dropStaged also covers a Put that failed after landing.
func (fm *fileManager) sealLarge(tx *opCtx) error {
	for _, key := range tx.order {
		sp, ok := tx.puts[key]
		if !ok || !sp.byRef() {
			continue
		}
		plain := joinPlain(sp.hdrEnc, sp.body)
		fkey, err := fm.fileKey(sp.ns, sp.name)
		if err != nil {
			return err
		}
		blob, err := pfs.EncryptWorkersCtx(fm.ctx, fkey, fm.fileID(sp.ns, sp.name), plain, fm.cryptoWorkers)
		if err != nil {
			if cerr := fm.ctxErr(); cerr != nil {
				return cerr
			}
			return err
		}
		fm.obs.observeCryptoSeal(pfs.UsesParallel(int64(len(plain)), fm.cryptoWorkers))
		var rnd [16]byte
		if _, err := rand.Read(rnd[:]); err != nil {
			return err
		}
		sp.stage = stagePrefix + hex.EncodeToString(rnd[:])
		sp.sealedLen = int64(len(blob))
		sp.footer = append([]byte(nil), pfs.Footer(blob)...)
		fm.rs.AddStoreOps(1)
		if err := sp.ns.backend.Put(sp.stage, blob); err != nil {
			return fmt.Errorf("segshare: stage %q: %w", sp.name, err)
		}
	}
	return nil
}

// dropStaged deletes the staging objects of an operation that will not
// commit. It is best-effort: a staging object that cannot be deleted now
// marks the journal dirty, so the recovery pass before the next mutation
// sweeps it.
func (fm *fileManager) dropStaged(tx *opCtx) {
	for _, key := range tx.order {
		sp, ok := tx.puts[key]
		if !ok || sp.stage == "" {
			continue
		}
		fm.rs.AddStoreOps(1)
		if err := sp.ns.backend.Delete(sp.stage); err != nil && !errors.Is(err, store.ErrNotExist) {
			fm.shared.journalDirty.Store(true)
		}
	}
}

// sweepStaged deletes every staging object in both namespaces. Recovery
// runs it once all pending intents are applied: no intent references a
// staging object any more, so whatever is left is a torn or abandoned
// commit's leftover.
func (fm *fileManager) sweepStaged() error {
	for _, ns := range []*namespace{fm.content, fm.group} {
		names, err := fm.stagedNames(ns)
		if err != nil {
			return err
		}
		for _, name := range names {
			if err := ns.backend.Delete(name); err != nil && !errors.Is(err, store.ErrNotExist) {
				return fmt.Errorf("segshare: sweep staging object: %w", err)
			}
		}
	}
	return nil
}

// stagedNames lists the staging objects in a namespace's backend.
func (fm *fileManager) stagedNames(ns *namespace) ([]string, error) {
	fm.rs.AddStoreOps(1)
	all, err := ns.backend.List()
	if err != nil {
		return nil, fmt.Errorf("segshare: list %s store: %w", ns.kind, err)
	}
	var names []string
	for _, name := range all {
		if strings.HasPrefix(name, stagePrefix) {
			names = append(names, name)
		}
	}
	return names, nil
}

// promote moves a by-reference write's staging object onto its final
// storage name. Live applies trust the object this process just staged.
// A replay first checks the candidates against the record's sealed
// length and footer (DESIGN §11): a present staging object must match
// and is promoted; an absent one means the promotion already happened,
// so the final object must match; anything else is an integrity
// violation, never a silently accepted older version.
func (fm *fileManager) promote(ns *namespace, w journal.Write, replay bool) error {
	final := fm.storageName(ns, w.Name)
	if replay {
		fm.rs.AddStoreOps(1)
		blob, err := ns.backend.Get(w.Stage)
		if errors.Is(err, store.ErrNotExist) {
			fm.rs.AddStoreOps(1)
			blob, err = ns.backend.Get(final)
			if errors.Is(err, store.ErrNotExist) {
				return fmt.Errorf("%w: %s: staged body missing", ErrIntegrity, w.Name)
			}
			if err != nil {
				return fmt.Errorf("segshare: load %q: %w", w.Name, err)
			}
			if !sealedMatches(w, blob) {
				return fmt.Errorf("%w: %s: stored body does not match its intent", ErrIntegrity, w.Name)
			}
			fm.invalidateRel(ns, w.Name)
			return nil
		}
		if err != nil {
			return fmt.Errorf("segshare: load staged %q: %w", w.Name, err)
		}
		if !sealedMatches(w, blob) {
			return fmt.Errorf("%w: %s: staged body does not match its intent", ErrIntegrity, w.Name)
		}
	}
	fm.rs.AddStoreOps(2)
	if err := ns.backend.Delete(final); err != nil && !errors.Is(err, store.ErrNotExist) {
		return fmt.Errorf("segshare: delete %q: %w", w.Name, err)
	}
	if err := ns.backend.Rename(w.Stage, final); err != nil {
		return fmt.Errorf("segshare: promote %q: %w", w.Name, err)
	}
	fm.invalidateRel(ns, w.Name)
	return nil
}

// sealedMatches reports whether blob is the exact ciphertext a
// by-reference record pins.
func sealedMatches(w journal.Write, blob []byte) bool {
	return int64(len(blob)) == w.SealedLen && bytes.Equal(pfs.Footer(blob), w.Footer)
}

// nsByKind resolves a journal record's store kind.
func (fm *fileManager) nsByKind(kind string) (*namespace, error) {
	switch kind {
	case contentRootKey:
		return fm.content, nil
	case groupRootKey:
		return fm.group, nil
	}
	return nil, fmt.Errorf("%w: unknown store kind in journal record", ErrIntegrity)
}

// applyIntent writes an intent's staged state to the backends: all
// writes in order, then all deletes. By-reference writes are promoted
// from their staging objects (replay marks a recovery pass, which checks
// them first). Root writes flagged NeedsToken commit the namespace guard
// and take its fresh token, which keeps a recovery replay consistent
// with the guard state. Deletes tolerate already-absent objects so
// replays are idempotent.
func (fm *fileManager) applyIntent(writes []journal.Write, deletes []journal.Delete, replay bool) error {
	for _, w := range writes {
		ns, err := fm.nsByKind(w.Store)
		if err != nil {
			return err
		}
		if w.Stage != "" {
			if err := fm.promote(ns, w, replay); err != nil {
				return err
			}
			continue
		}
		var hdr *rollback.Header
		if len(w.Header) > 0 {
			h, _, err := rollback.DecodeHeader(w.Header)
			if err != nil {
				return fmt.Errorf("%w: %s: bad header in journal record", ErrIntegrity, w.Name)
			}
			hdr = h
		}
		if w.NeedsToken {
			if hdr == nil {
				return fmt.Errorf("%w: %s: tokenless root record", ErrIntegrity, w.Name)
			}
			token, err := ns.guard.Commit(hdr.Main)
			if err != nil {
				return err
			}
			hdr.Token = token
		}
		if err := fm.putBlobRaw(ns, w.Name, hdr, w.Body); err != nil {
			return err
		}
	}
	for _, d := range deletes {
		ns, err := fm.nsByKind(d.Store)
		if err != nil {
			return err
		}
		if err := fm.deleteBlobRaw(ns, d.Name); err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
	}
	return nil
}

type recoverOpts struct {
	// strict enforces the journal's truncation bound against the enclave
	// counter; relaxed only after a CA-authorized backup restoration.
	strict bool
	// validate re-checks the rollback-tree path of every replayed object.
	validate bool
}

// recoverJournal scans the journal and re-applies every committed intent
// in order (crashes between an intent's commit and its application roll
// forward; a commit torn by the crash was never applied and its record
// is discarded — the rollback case). Replays are recorded in the audit
// trail, and with validate set, every object a replay touched is
// re-validated against the rollback tree afterwards.
func (fm *fileManager) recoverJournal(opts recoverOpts) error {
	if fm.journal == nil {
		return nil
	}
	// Exclusive: no mutation is between staging and MarkApplied, so every
	// pending intent is one no live request will apply, and every staging
	// object no pending intent references is a leftover.
	fm.shared.commitMu.Lock()
	defer fm.shared.commitMu.Unlock()
	fm.shared.recovery.begin()
	defer fm.shared.recovery.finish()
	set, err := fm.journal.Recover(opts.strict)
	if err != nil {
		return err
	}
	for i, rec := range set.Pending {
		if err := fm.applyIntent(rec.Writes, rec.Deletes, true); err != nil {
			return fmt.Errorf("segshare: replay journal intent %d: %w", rec.Seq, err)
		}
		if err := fm.journal.MarkApplied(rec.Seq); err != nil {
			return err
		}
		fm.shared.recovery.progress(i + 1)
	}
	if err := fm.sweepStaged(); err != nil {
		return err
	}
	fm.shared.journalDirty.Store(false)
	if len(set.Pending) > 0 || set.Discarded > 0 {
		fm.obs.auditEmit(audit.Event{
			Event:  audit.EventRecovery,
			Detail: fmt.Sprintf("replayed=%d discarded=%d", len(set.Pending), set.Discarded),
		})
	}
	if !opts.validate {
		return nil
	}
	seen := make(map[string]bool)
	for _, rec := range set.Pending {
		for _, w := range rec.Writes {
			key := w.Store + ":" + w.Name
			if seen[key] {
				continue
			}
			seen[key] = true
			ns, err := fm.nsByKind(w.Store)
			if err != nil {
				return err
			}
			hdr, body, err := fm.getBlob(ns, w.Name)
			if errors.Is(err, ErrNotFound) {
				continue // written then deleted within the same intent
			}
			if err != nil {
				return err
			}
			if err := fm.validateNode(ns, w.Name, hdr, body); err != nil {
				return err
			}
		}
	}
	return nil
}
