package metrics

import (
	"fmt"
	"io"
)

// WriteDigest writes r as one line of the record encoding the golden
// digests hash. The field list is explicit, in the {Field:value ...} form
// of fmt's %+v, so adding a field to Record moves no committed digest; a
// field joins the encoding only when a golden is meant to pin it.
func WriteDigest(w io.Writer, r Record) {
	fmt.Fprintf(w, "{ID:%d Label:%s Arrival:%v FirstRun:%v Finish:%v CPU:%v Preemptions:%d MemMB:%d FibN:%d ColdStart:%v Failed:%t Attempts:%d GiveUp:%t Wasted:%v}\n",
		r.ID, r.Label(), r.Arrival, r.FirstRun, r.Finish, r.CPU, r.Preemptions, r.MemMB, r.FibN,
		r.ColdStart, r.Failed, r.Attempts, r.GiveUp, r.Wasted)
}
