package core

import (
	"context"
	"fmt"
	"strings"

	"afp/internal/mipmodel/modelcheck"
	"afp/internal/netlist"
)

// AuditDesign statically audits the design's MILP formulation without
// solving anything: it builds and presolves the single whole-design
// model of Section 2.3 under the given configuration, the model
// FloorplanExact would search, and runs the modelcheck audit on it.
// The floorplan service calls it on every solve request before dispatch,
// so malformed instances (a module wider than the chip, a formulation
// bug) are rejected up front rather than burning solver time.
func AuditDesign(d *netlist.Design, cfg Config) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if len(d.Modules) == 0 {
		return nil
	}
	c := cfg.withDefaults(d)
	c.Audit = true
	//vet:allow ctxsolve -- AuditDesign solves nothing; the presolve span roots here
	if _, _, err := newStepModels(&c, d).build(context.Background(), 0, allIndices(len(d.Modules)), nil, nil, true); err != nil {
		return fmt.Errorf("core: audit: %w", err)
	}
	return nil
}

func joinFindings(fs []modelcheck.Finding) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}
