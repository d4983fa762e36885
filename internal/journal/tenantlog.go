// Tenant log: the durable record of live-tuned tenant limits.
//
// Quotas set through the admin API (or re-tuned at runtime) must survive a
// daemon restart — otherwise a crash silently resets every tenant to the
// flag defaults and a previously throttled tenant gets a fresh, unlimited
// start. Every explicit limit change is an fsynced CRC-framed line in
// tenants.meta (same framing as the job meta log); recovery folds the log
// into the last limits per tenant and compacts the file so it cannot grow
// without bound across restarts. Flag-configured limits are applied before
// recovery, so the journaled (newer) tuning wins for any tenant present in
// both.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/tenant"
)

// tenantFile is the tenant log's file name inside the spool directory.
const tenantFile = "tenants.meta"

// TenantEntry is one line of the tenant log.
type TenantEntry struct {
	Name   string        `json:"name"`
	Limits tenant.Limits `json:"limits"`
	Time   time.Time     `json:"time"`
}

// TenantLog appends tenant limit changes to the spool. Obtain one with
// Journal.Tenants. Methods are safe for concurrent use.
type TenantLog struct {
	j *Journal
}

// Tenants returns the journal's tenant log.
func (j *Journal) Tenants() *TenantLog { return &TenantLog{j: j} }

func (t *TenantLog) path() string { return filepath.Join(t.j.dir, tenantFile) }

// RecordLimits durably records that name's limits were set to lim. Honors
// the "journal.tenant" fault point. A write failure degrades the spool's
// writable flag like any other journal write, but the in-memory tuning
// still applies — durability is best effort for tuning, mandatory only for
// job acceptance.
func (t *TenantLog) RecordLimits(name string, lim tenant.Limits) error {
	return t.j.appendFramed("journal.tenant", t.path(), TenantEntry{Name: name, Limits: lim, Time: time.Now()})
}

// RecoverTenants reads the tenant log, folds it into the latest limits per
// tenant, and compacts the file. Torn or corrupt lines are dropped and
// counted in stats, matching the job meta log's corruption tolerance; a
// missing log is an empty map, not an error.
func (t *TenantLog) RecoverTenants(stats *RecoverStats) (map[string]tenant.Limits, error) {
	out := map[string]tenant.Limits{}
	dropped, err := scanFramed(t.path(), func(payload []byte) bool {
		var e TenantEntry
		if json.Unmarshal(payload, &e) != nil || e.Name == "" {
			return false
		}
		out[e.Name] = e.Limits // last write wins
		return true
	})
	if errors.Is(err, os.ErrNotExist) {
		return out, nil
	}
	if err != nil {
		return out, fmt.Errorf("journal: tenant log: %w", err)
	}
	if stats != nil {
		stats.TruncatedRecords += dropped
	}
	if err := t.compact(out); err != nil {
		return out, fmt.Errorf("journal: tenant log compaction: %w", err)
	}
	return out, nil
}

// compact atomically rewrites the tenant log to one line per tenant.
func (t *TenantLog) compact(limits map[string]tenant.Limits) error {
	names := make([]string, 0, len(limits))
	for name := range limits {
		names = append(names, name)
	}
	sort.Strings(names)
	now := time.Now()
	entries := make([]any, 0, len(names))
	for _, name := range names {
		entries = append(entries, TenantEntry{Name: name, Limits: limits[name], Time: now})
	}
	return rewriteFramed(t.path(), entries)
}
