package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"jayanti98/internal/obs"
)

// JobRecord is one entry of the scheduler's write-ahead job journal: the
// durable form of a job's spec, tenant, and lifecycle, persisted as
// <id>.job.json behind the cache's atomic-file layer when the job is
// accepted, canceled, or ends. Its start is not journaled: replay treats a
// running record like a queued one. The record never carries the result —
// results live in the content-addressed cache under the same ID — so the
// journal stays small and a replayed terminal job is served
// byte-identically from the cache.
//
// Replay semantics (see (*Scheduler).replayJournal): a tombstoned record
// is terminal-canceled forever; a terminal record is rebuilt as a served
// job; a queued or running record is re-enqueued from scratch, which is
// safe — and byte-identical — because every workload is a deterministic
// function of its spec.
type JobRecord struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Spec   *Spec  `json:"spec"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	// Tombstone marks a job canceled by DELETE /v1/jobs: replay must
	// keep it canceled even when the recorded status is still queued or
	// running (the server may have been killed between the cancel and
	// the job unwinding).
	Tombstone bool `json:"tombstone,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// journalRecord snapshots j into its durable form. Callers hold j.mu or
// own j exclusively.
func (j *job) journalRecordLocked() JobRecord {
	rec := JobRecord{
		ID:        j.id,
		Tenant:    j.tenant,
		Spec:      j.spec,
		Status:    j.status,
		Error:     j.errMsg,
		Tombstone: j.tombstoned,
		Created:   j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		rec.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		rec.Finished = &t
	}
	return rec
}

// journal persists j's current state. A journal write failure is logged
// and counted, never fatal: the in-memory scheduler stays authoritative
// for this life, and the worst a lost write costs after a crash is
// re-running one deterministic job.
func (s *Scheduler) journal(j *job) { s.journalAs(j, nil) }

// journalSeam, when non-nil, runs between a journal record's snapshot and
// its write. Tests use it to interleave other writers of the same job.
var journalSeam func(JobRecord)

// journalAs snapshots j, lets edit adjust the record (nil: none) and
// writes it, all under j.journalMu. Submit, the worker and Cancel journal
// one job from different goroutines; holding the lock from snapshot to
// write makes their records land in snapshot order, so the last record on
// disk is always the job's latest state, never a stale one written late.
// It reports whether the write succeeded.
func (s *Scheduler) journalAs(j *job, edit func(*JobRecord)) bool {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	rec := j.journalRecordLocked()
	j.mu.Unlock()
	if edit != nil {
		edit(&rec)
	}
	if journalSeam != nil {
		journalSeam(rec)
	}
	data, err := json.Marshal(rec)
	if err == nil {
		err = s.cache.JobRecords.Put(rec.ID, data)
	}
	if err != nil {
		s.met.journalErrors.Inc()
		s.jobLogger(rec.ID, rec.Spec.Kind).Warn("journal write failed", "error", err.Error())
		return false
	}
	s.met.journalWrites.Inc()
	return true
}

// decodeJobRecord decodes the journal record stored under fileID. It
// rejects a record that does not parse, names another job, or carries a
// spec that is missing, invalid (Spec.ID validates it) or hashes to a
// different ID: replaying such a spec would run one job and cache its
// bytes under another job's ID, to be served for every later submission
// of that job.
func decodeJobRecord(fileID string, data []byte) (JobRecord, error) {
	var rec JobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JobRecord{}, err
	}
	if rec.ID != fileID {
		return JobRecord{}, fmt.Errorf("record id %q does not match its file", obs.ShortID(rec.ID))
	}
	if rec.Spec == nil {
		return JobRecord{}, errors.New("record has no spec")
	}
	specID, err := rec.Spec.ID()
	if err != nil {
		return JobRecord{}, err
	}
	if specID != fileID {
		return JobRecord{}, fmt.Errorf("record spec hashes to %s", obs.ShortID(specID))
	}
	return rec, nil
}

// replayJournal rebuilds the previous server life's jobs from the
// journal, called once from NewScheduler before the workers start:
//
//   - tombstoned records become terminal canceled jobs (a DELETE
//     outlives the process — the satellite contract);
//   - done records are rebuilt as completed jobs backed by the result
//     cache; a record whose result bytes are gone (cache dir wiped by
//     hand) is re-enqueued instead, which re-derives the identical
//     bytes;
//   - failed/canceled records are rebuilt terminal as-is;
//   - queued and running records are re-enqueued, oldest first — the
//     write-ahead property: accepted work survives the process.
//
// A record decodeJobRecord rejects is logged and skipped; one corrupt
// file must not keep the server from booting.
func (s *Scheduler) replayJournal() {
	ids := s.cache.JobRecords.List()
	if len(ids) == 0 {
		return
	}
	_, span := s.tracer.Start(obs.WithLogger(s.baseCtx, s.logger), "journal replay")
	defer span.End()
	var recs []JobRecord
	for _, id := range ids {
		data, ok := s.cache.JobRecords.Get(id)
		if !ok {
			continue
		}
		rec, err := decodeJobRecord(id, data)
		if err != nil {
			s.met.journalSkipped.Inc()
			s.logger.Warn("journal record skipped", "job_id", obs.ShortID(id), "error", err.Error())
			continue
		}
		recs = append(recs, rec)
	}
	// Oldest first so re-enqueued jobs keep their original arrival order
	// (ties broken by ID for determinism).
	sort.Slice(recs, func(i, k int) bool {
		if !recs[i].Created.Equal(recs[k].Created) {
			return recs[i].Created.Before(recs[k].Created)
		}
		return recs[i].ID < recs[k].ID
	})
	var replayed, reenqueued int
	for i := range recs {
		rec := recs[i]
		if s.replayRecord(rec) {
			reenqueued++
		}
		replayed++
		s.met.journalReplayed.Inc()
	}
	span.SetAttr("records", fmt.Sprintf("%d", replayed))
	span.SetAttr("reenqueued", fmt.Sprintf("%d", reenqueued))
	s.logger.Info("journal replayed", "records", replayed, "reenqueued", reenqueued)
}

// replayRecord rebuilds one journal record; reports whether it
// re-enqueued work.
func (s *Scheduler) replayRecord(rec JobRecord) bool {
	j := &job{
		id:       rec.ID,
		spec:     rec.Spec,
		tenant:   tenantOrDefault(rec.Tenant),
		status:   rec.Status,
		errMsg:   rec.Error,
		created:  rec.Created,
		progress: NewProgress(),
		done:     make(chan struct{}),
	}
	if rec.Started != nil {
		j.started = *rec.Started
	}
	if rec.Finished != nil {
		j.finished = *rec.Finished
	}

	switch {
	case rec.Tombstone || rec.Status == StatusFailed || rec.Status == StatusCanceled:
		if rec.Tombstone {
			j.status = StatusCanceled
			j.tombstoned = true
		}
		if j.finished.IsZero() {
			j.finished = j.created
		}
		j.progress.Set(string(j.status), 0, 0)
		j.progress.Close()
		close(j.done)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.journal(j) // normalize the durable form (tombstone → canceled)
		return false

	case rec.Status == StatusDone:
		result, ok := s.cache.Results.Get(rec.ID)
		if ok {
			j.status = StatusDone
			j.cached = true
			j.result = result
			j.progress.Set("cached", 1, 1)
			j.progress.Close()
			close(j.done)
			s.mu.Lock()
			s.jobs[j.id] = j
			s.mu.Unlock()
			return false
		}
		// The journal says done but the result bytes are gone: fall
		// through and recompute — determinism yields the same bytes.
		fallthrough

	default: // queued, running, or done-with-missing-result
		j.status = StatusQueued
		j.started, j.finished = time.Time{}, time.Time{}
		s.mu.Lock()
		// Replay bypasses queue-depth and tenant caps: this work was
		// already accepted by the previous life, and rejecting it now
		// would turn a restart into data loss.
		s.enqueueLocked(j)
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.journal(j)
		s.jobLogger(j.id, j.spec.Kind).Info("job re-enqueued from journal")
		return true
	}
}
