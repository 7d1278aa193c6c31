package sim

import (
	"fmt"
	"math"

	"greensched/internal/carbon"
	"greensched/internal/sched"
	"greensched/internal/sla"
	"greensched/internal/workload"
)

// This file relaxes the simulator's oldest invariant — "a started task
// runs to completion" — behind PreemptModule: a running task can be
// checkpointed (its completed Ops fraction retained minus the restart
// penalty) and displaced by deadline-urgent work, either automatically
// at arrival when the elected SED's own slack math proves waiting would
// breach the deadline, or explicitly through Control.Preempt. The
// checkpointed segment still charges its energy and emissions (carried
// into the final TaskRecord), and the remainder re-enters election like
// any other submission. Package sla supplies the safety calculus,
// package sched the victim ordering.

// tryPreempt attempts to start a deadline-urgent arrival by
// checkpointing a running victim on the elected SED. It fires only
// when the SED's slack math says waiting would breach the deadline but
// an immediate start would not, the displacement gains dollars under
// the task's own curve, and a victim exists whose deadline survives
// the restart.
func (r *Runner) tryPreempt(now float64, sed *sedState, p pendingTask) bool {
	if r.pre == nil || len(sed.running) == 0 {
		return false
	}
	view := r.taskView(p.task)
	if view.Deadline <= 0 {
		return false
	}
	exec := sed.node.Spec.TaskSeconds(p.task.Ops)
	if now+exec > view.Deadline {
		return false // even an immediate start misses; nothing to save
	}
	wait := r.urgentWaitEstimate(now, sed, p.task)
	if now+wait+exec <= view.Deadline {
		return false // waiting keeps the deadline; disturb no one
	}
	if terms, ok := r.terms[p.task.ID]; ok {
		// With full terms on file the urgency must also pay: displacing
		// for a task whose curve retains nothing either way would burn
		// checkpointed work for zero dollars.
		if sla.DisplacementGainUSD(terms, now, exec, wait) <= 0 {
			return false
		}
	}
	rt := r.pickVictim(now, sed, exec)
	if rt == nil {
		return false
	}
	r.preempt(now, sed, rt)
	r.startTask(now, sed, p)
	return true
}

// urgentWaitEstimate bounds a deadline-urgent arrival's wait at sed
// under the queue discipline actually in force: when the configured
// order would pop it ahead of every queued task (the usual EDF case),
// it waits only for the earliest slot release; otherwise it falls
// back to the conservative FIFO drain estimate of waitEstimate.
func (r *Runner) urgentWaitEstimate(now float64, sed *sedState, t workload.Task) float64 {
	if sed.order != nil && sed.aheadOfAll(r.taskView(t)) {
		if wait := sed.nextRelease(now); !math.IsInf(wait, 1) {
			return wait
		}
		return 0
	}
	return sed.waitEstimate(now)
}

// pickVictim returns the cheapest running task (per sched.BestVictim)
// that is safe to displace for an urgent task of urgentExec seconds,
// or nil. Zero-progress segments are skipped: checkpointing them saves
// nothing and same-instant restarts could otherwise displace each
// other forever.
func (r *Runner) pickVictim(now float64, sed *sedState, urgentExec float64) *runningTask {
	rts, views := r.victims[:0], r.views[:0]
	for _, rt := range sed.running {
		if now <= rt.start {
			continue
		}
		if !sla.SafeToDisplace(now, urgentExec, r.restartRemainingSec(now, sed, rt), r.victimTerms(rt.task)) {
			continue
		}
		rts = append(rts, rt)
		views = append(views, sched.NewVictimView(r.taskView(rt.task), now, rt.finishAt-now))
	}
	r.victims, r.views = rts, views
	if i := sched.BestVictim(views, nil); i >= 0 {
		return rts[i]
	}
	return nil
}

// preempt checkpoints a running task: the executed segment charges its
// energy share (and emissions) exactly as a completion would, the slot
// frees, and the remaining work — unfinished Ops plus the restart
// penalty's share of the finished ones — re-enters election
// immediately. The caller decides what the freed slot serves next: the
// arrival path starts the urgent task, Control.Preempt drains the
// queue.
func (r *Runner) preempt(now float64, sed *sedState, rt *runningTask) {
	sed.advanceBusy(now)
	delete(sed.running, rt.task.ID)
	sed.bumpWait()
	duringW := sed.node.Power()
	if err := sed.node.FinishTask(now); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	elapsed := now - rt.start
	segJ, segG := 0.0, 0.0
	if elapsed > 0 {
		meanW, n := sed.meter.MeanWindow(rt.start, now)
		if n == 0 {
			meanW = duringW
		}
		meanBusy := (sed.busyIntegral - rt.busyMark) / elapsed
		if meanBusy < 1 {
			meanBusy = 1
		}
		segJ = meanW * elapsed / meanBusy
		if sed.site != nil {
			segG = carbon.Grams(*sed.site, segJ, rt.start, now)
		}
	}
	done := r.doneOps(now, rt)
	p := pendingTask{
		task:        rt.task,
		resubmits:   rt.resubmits,
		preemptions: rt.preemptions + 1,
		carriedJ:    rt.carriedJ + segJ,
		carriedG:    rt.carriedG + segG,
	}
	p.task.Ops = r.pre.RemainingOps(rt.task.Ops, done)
	r.res.Preemptions++
	r.res.PreemptRedoneOps += r.pre.RedoneOps(done)
	r.requeue(0, p)
	if len(sed.running) == 0 && sed.qlen() == 0 {
		sed.idleAt = now
	}
	r.freeRunning(rt)
}

// doneOps is the work the current segment has completed by now.
func (r *Runner) doneOps(now float64, rt *runningTask) float64 {
	if rt.plannedExec <= 0 {
		return rt.task.Ops
	}
	frac := (now - rt.start) / rt.plannedExec
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return rt.task.Ops * frac
}

// restartRemainingSec prices a victim's post-checkpoint run time at
// the owning node's speed — conservative, since re-election may find a
// faster slot.
func (r *Runner) restartRemainingSec(now float64, sed *sedState, rt *runningTask) float64 {
	done := r.doneOps(now, rt)
	return sed.node.Spec.TaskSeconds(r.pre.RemainingOps(rt.task.Ops, done))
}

// victimTerms resolves the terms preemption safety is judged against:
// the SLA catalog's resolution when configured, the task's raw
// deadline/value otherwise (with the same curve fallbacks as
// sla.Catalog.Resolve).
func (r *Runner) victimTerms(t workload.Task) sla.Terms {
	if terms, ok := r.terms[t.ID]; ok {
		return terms
	}
	out := sla.Terms{Class: t.Class, Deadline: t.Deadline, ValueUSD: t.Value}
	if out.Deadline > 0 {
		out.Curve = sla.HardDrop{}
	} else {
		out.Curve = sla.Flat{}
	}
	return out
}
