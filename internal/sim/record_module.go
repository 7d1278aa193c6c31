package sim

// RecordModule keeps every completed task's TaskRecord, in completion
// order, and publishes them as Result.Records. The kernel itself keeps
// only running totals, so a run's memory does not grow with its trace;
// stack this module where a caller reads per-task fates (deadline
// misses of preempted tasks, per-task energy, a printed schedule).
type RecordModule struct {
	BaseModule

	recs []TaskRecord
}

// Init implements Module: it sizes the record list for one completion
// per configured task, so the appends never reallocate in the common
// case.
func (m *RecordModule) Init(r *Runner) error {
	m.recs = make([]TaskRecord, 0, len(r.cfg.Tasks))
	return nil
}

// OnFinish implements Module.
func (m *RecordModule) OnFinish(rec TaskRecord) { m.recs = append(m.recs, rec) }

// Finalize implements Module.
func (m *RecordModule) Finalize(res *Result) { res.Records = m.recs }
