package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dag"
	"repro/internal/perfmodel"
)

// The model-cache facet: one JSON file per fitted (environment, seed)
// campaign under <dir>/models/, written atomically via rename. Files are
// self-describing and deterministic for a given fit, so concurrent saves by
// racing replicas are idempotent and need no locking; a corrupt or
// unreadable file is treated as a miss and simply refitted.

// taskPoint is one profiled (kernel, n, p) measurement on the wire.
// map[perfmodel.TaskKey]float64 cannot round-trip through encoding/json
// (struct keys), so the profile ships as a sorted array.
type taskPoint struct {
	Kernel int     `json:"kernel"`
	N      int     `json:"n"`
	P      int     `json:"p"`
	T      float64 `json:"t"`
}

// profileWire is the wire form of perfmodel.ProfileData.
type profileWire struct {
	TaskTimes   []taskPoint     `json:"task_times"`
	Startup     map[int]float64 `json:"startup"`
	RedistByDst map[int]float64 `json:"redist_by_dst"`
}

// modelFile is one durable model-cache entry.
type modelFile struct {
	Environment string               `json:"environment"`
	Seed        int64                `json:"seed"`
	BuildMillis float64              `json:"build_millis"`
	SavedAt     time.Time            `json:"saved_at"`
	Profile     *profileWire         `json:"profile"`
	Empirical   *perfmodel.Empirical `json:"empirical"`
}

// ModelKeyInfo names one cached fit.
type ModelKeyInfo struct {
	Environment string
	Seed        int64
}

// modelFileName encodes (env, seed) into a stable, filesystem-safe name.
// Environment names are operator- or campaign-derived strings; any byte
// outside [A-Za-z0-9._-] is %XX-escaped.
func modelFileName(env string, seed int64) string {
	var b strings.Builder
	for i := 0; i < len(env); i++ {
		c := env[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return fmt.Sprintf("%s@%d.json", b.String(), seed)
}

func (s *Store) modelPath(env string, seed int64) string {
	return filepath.Join(s.dir, "models", modelFileName(env, seed))
}

// SaveModels persists a fitted campaign's profile and empirical models.
func (s *Store) SaveModels(env string, seed int64, prof *perfmodel.Profile, emp *perfmodel.Empirical, buildMillis float64) error {
	wire := &profileWire{
		Startup:     prof.Data.Startup,
		RedistByDst: prof.Data.RedistByDst,
	}
	for k, t := range prof.Data.TaskTimes {
		wire.TaskTimes = append(wire.TaskTimes, taskPoint{Kernel: int(k.Kernel), N: k.N, P: k.P, T: t})
	}
	sort.Slice(wire.TaskTimes, func(a, b int) bool {
		ta, tb := wire.TaskTimes[a], wire.TaskTimes[b]
		if ta.Kernel != tb.Kernel {
			return ta.Kernel < tb.Kernel
		}
		if ta.N != tb.N {
			return ta.N < tb.N
		}
		return ta.P < tb.P
	})
	data, err := json.MarshalIndent(modelFile{
		Environment: env, Seed: seed, BuildMillis: buildMillis,
		SavedAt: s.now().UTC(), Profile: wire, Empirical: emp,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("store: models: %w", err)
	}
	err = writeFileSynced(s.modelPath(env, seed), func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: models: %w", err)
	}
	return nil
}

// LoadModels loads a cached fit. A missing, corrupt or mismatched file is a
// cache miss (ok=false), never an error: the caller refits and overwrites.
func (s *Store) LoadModels(env string, seed int64) (*perfmodel.Profile, *perfmodel.Empirical, bool) {
	data, err := os.ReadFile(s.modelPath(env, seed))
	if err != nil {
		return nil, nil, false
	}
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, nil, false
	}
	if mf.Environment != env || mf.Seed != seed || mf.Profile == nil || mf.Empirical == nil {
		return nil, nil, false
	}
	pd := perfmodel.NewProfileData()
	for _, tp := range mf.Profile.TaskTimes {
		pd.TaskTimes[perfmodel.TaskKey{Kernel: dag.Kernel(tp.Kernel), N: tp.N, P: tp.P}] = tp.T
	}
	for p, v := range mf.Profile.Startup {
		pd.Startup[p] = v
	}
	for p, v := range mf.Profile.RedistByDst {
		pd.RedistByDst[p] = v
	}
	prof, err := perfmodel.NewProfile(pd)
	if err != nil {
		return nil, nil, false
	}
	return prof, mf.Empirical, true
}

// ModelKeys lists every cached fit, sorted by environment then seed.
func (s *Store) ModelKeys() []ModelKeyInfo {
	entries, err := os.ReadDir(filepath.Join(s.dir, "models"))
	if err != nil {
		return nil
	}
	var out []ModelKeyInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		// Decode "<escaped-env>@<seed>.json"; files that do not parse are
		// someone else's and are skipped.
		base := strings.TrimSuffix(name, ".json")
		at := strings.LastIndex(base, "@")
		if at < 0 {
			continue
		}
		seed, err := strconv.ParseInt(base[at+1:], 10, 64)
		if err != nil {
			continue
		}
		env, ok := unescapeModelName(base[:at])
		if !ok {
			continue
		}
		out = append(out, ModelKeyInfo{Environment: env, Seed: seed})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Environment != out[b].Environment {
			return out[a].Environment < out[b].Environment
		}
		return out[a].Seed < out[b].Seed
	})
	return out
}

// unescapeModelName reverses modelFileName's %XX escaping.
func unescapeModelName(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", false
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), true
}
