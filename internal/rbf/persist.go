package rbf

import (
	"encoding/json"
	"fmt"
)

// networkFile is the serialised form of a trained network. The regression
// tree used for centre selection is not persisted — a loaded network
// predicts identically but no longer exposes split statistics.
type networkFile struct {
	Centers     [][]float64 `json:"centers"`
	Radii       [][]float64 `json:"radii"`
	Weights     []float64   `json:"weights"`
	HasBias     bool        `json:"has_bias"`
	Lambda      float64     `json:"lambda"`
	GCV         float64     `json:"gcv"`
	RadiusScale float64     `json:"radius_scale"`
	// DimLevels persists the level declaration (Options.DimLevels) so a
	// loaded network tabulates the levels it was trained to tabulate; it is
	// absent for a network trained without one. The factor columns and
	// level table derived from it are rebuilt on load, never stored.
	DimLevels [][]float64 `json:"dim_levels,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (n *Network) MarshalJSON() ([]byte, error) {
	return json.Marshal(networkFile{
		Centers:     n.centers,
		Radii:       n.radii,
		Weights:     n.weights,
		HasBias:     n.hasBias,
		Lambda:      n.lambda,
		GCV:         n.gcv,
		RadiusScale: n.radiusScale,
		DimLevels:   n.dimLevels,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (n *Network) UnmarshalJSON(data []byte) error {
	var f networkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if len(f.Centers) != len(f.Radii) {
		return fmt.Errorf("rbf: %d centers but %d radii", len(f.Centers), len(f.Radii))
	}
	want := len(f.Centers)
	if f.HasBias {
		want++
	}
	if len(f.Weights) != want {
		return fmt.Errorf("rbf: %d weights for %d basis terms", len(f.Weights), want)
	}
	if len(f.Centers) > 0 && len(f.Centers[0]) > maxDims {
		return fmt.Errorf("rbf: %d input dimensions, at most %d supported", len(f.Centers[0]), maxDims)
	}
	for i := range f.Centers {
		if len(f.Centers[i]) != len(f.Radii[i]) {
			return fmt.Errorf("rbf: basis %d center/radius dimension mismatch", i)
		}
		// All centres must share one input dimension: the flattened
		// inference tables are row-major with a fixed stride.
		if len(f.Centers[i]) != len(f.Centers[0]) {
			return fmt.Errorf("rbf: basis %d has dimension %d, want %d", i, len(f.Centers[i]), len(f.Centers[0]))
		}
		for _, r := range f.Radii[i] {
			if r <= 0 {
				return fmt.Errorf("rbf: basis %d has non-positive radius", i)
			}
		}
	}
	n.centers = f.Centers
	n.radii = f.Radii
	n.weights = f.Weights
	n.hasBias = f.HasBias
	n.lambda = f.Lambda
	n.gcv = f.GCV
	n.radiusScale = f.RadiusScale
	n.tree = nil
	// Rebuild the derived inference tables (centres, 1/radius
	// reciprocals, factor columns, level table): a loaded network must
	// predict exactly like the one that was saved.
	n.finalize(f.DimLevels)
	n.buildLevelTable()
	return nil
}
