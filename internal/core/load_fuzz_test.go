package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/space"
)

// savedPredictor trains a small predictor and returns its Save bytes.
func savedPredictor(tb testing.TB) []byte {
	tb.Helper()
	train, _ := sampleConfigs(24, 0, 31)
	p, err := Train(train, tracesFor(train, 8), Options{NumCoefficients: 2})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// editNets decodes a saved predictor, applies edit to every network's
// JSON object and re-encodes it.
func editNets(tb testing.TB, blob []byte, edit func(net map[string]any)) []byte {
	tb.Helper()
	var file map[string]any
	if err := json.Unmarshal(blob, &file); err != nil {
		tb.Fatal(err)
	}
	for _, net := range file["nets"].([]any) {
		edit(net.(map[string]any))
	}
	out, err := json.Marshal(file)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// stripLevels drops a network's level declaration, as files saved before
// every network declared one lack it.
func stripLevels(net map[string]any) { delete(net, "dim_levels") }

// mismatchLevels trims the second network's level declaration (each
// dimension loses its first level), so the networks declare different
// levels.
func mismatchLevels(tb testing.TB, blob []byte) []byte {
	tb.Helper()
	var file map[string]any
	if err := json.Unmarshal(blob, &file); err != nil {
		tb.Fatal(err)
	}
	levels := file["nets"].([]any)[1].(map[string]any)["dim_levels"].([]any)
	for j, l := range levels {
		if vs := l.([]any); len(vs) > 1 {
			levels[j] = vs[1:]
		}
	}
	out, err := json.Marshal(file)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// widen pads every centre and radius of a network to 17 inputs.
func widen(net map[string]any) {
	for _, key := range []string{"centers", "radii"} {
		rows := net[key].([]any)
		for i, row := range rows {
			r := row.([]any)
			for len(r) < 17 {
				r = append(r, 1.0)
			}
			rows[i] = r
		}
	}
}

// TestLoadRefusesUndeclaredAndMisshapenNetworks: a network without a
// level declaration was fit against a retired kernel, and one whose input
// width is not the encoding's would index past the feature vector, so
// Load refuses both rather than answering differently from the model
// that was saved.
func TestLoadRefusesUndeclaredAndMisshapenNetworks(t *testing.T) {
	blob := savedPredictor(t)
	if _, err := Load(bytes.NewReader(blob)); err != nil {
		t.Fatalf("the unedited predictor: %v", err)
	}
	narrow := func(net map[string]any) {
		for _, key := range []string{"centers", "radii"} {
			for i, row := range net[key].([]any) {
				net[key].([]any)[i] = row.([]any)[:3]
			}
		}
	}
	for name, edit := range map[string]func(map[string]any){
		"no dim_levels": stripLevels, "17 inputs": widen, "3 inputs": narrow,
	} {
		if _, err := Load(bytes.NewReader(editNets(t, blob, edit))); err == nil {
			t.Errorf("%s: Load accepted it", name)
		}
	}
}

// FuzzLoad drives hostile bytes through Load. It must never panic; a
// predictor it accepts must predict a Table 2 design (its trace and its
// coefficient-space mean) without panicking, and must save to bytes that
// load back and save identically.
func FuzzLoad(f *testing.F) {
	blob := savedPredictor(f)
	f.Add(blob)
	f.Add(editNets(f, blob, stripLevels))
	f.Add(editNets(f, blob, widen))
	f.Add(mismatchLevels(f, blob))
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, cfg := range []space.Config{space.Baseline(), space.TrainLevels().Design(space.Baseline(), [space.NumParams]int{3, 2, 3, 3, 3, 4, 3, 3, 3})} {
			p.Predict(cfg)
			p.PredictMean(cfg)
		}
		var once, twice bytes.Buffer
		if err := p.Save(&once); err != nil {
			t.Fatal(err)
		}
		q, err := Load(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("an accepted predictor's own save is refused: %v", err)
		}
		if err := q.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("Save → Load → Save changed the bytes:\n  %s\n  %s", once.Bytes(), twice.Bytes())
		}
	})
}
