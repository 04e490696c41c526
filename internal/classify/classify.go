// Package classify defines the classifier abstraction the CAAI pipeline is
// built on. CAAI step 3 ("classify") only needs a label and a confidence
// for a feature vector; everything that can produce those -- the random
// forest the paper settled on, the Weka comparison classifiers in
// internal/ml, or an out-of-tree experiment -- implements Classifier and
// plugs into core.Identifier, engine.IdentifyBatch, and the census runner
// unchanged.
//
// The package also defines the model persistence layer: a Codec serializes
// one classifier backend, and Save/Load wrap codecs in a self-describing
// versioned envelope so tools can write a trained model once and reload it
// without knowing the backend in advance.
package classify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// Classifier is the common classification interface (moved here from
// internal/ml so the pipeline does not depend on one model family).
type Classifier interface {
	// Name identifies the classifier backend in reports.
	Name() string
	// Classify returns the predicted label and a confidence in [0, 1].
	Classify(features []float64) (string, float64)
}

// BatchClassifier is implemented by backends that can classify a block of
// feature vectors in one call (the random forest advances every vector of
// the block through each tree with branch-free compares). Implementations
// must produce results identical to calling Classify per vector -- the
// pipeline batches opportunistically wherever vectors pile up, and job
// outcomes must not depend on how they were grouped into blocks.
type BatchClassifier interface {
	Classifier
	// ClassifyBatch writes the label and confidence for vecs[i] into
	// labels[i] and confs[i]; both slices must have len(vecs) elements.
	ClassifyBatch(vecs [][]float64, labels []string, confs []float64)
}

// Codec serializes trained classifiers of one backend. Implementations
// register themselves with RegisterCodec (typically from an init function)
// so Save and Load can dispatch on the backend name.
type Codec interface {
	// Backend is the name under which models are saved; it must match the
	// Name() of the classifiers the codec handles.
	Backend() string
	// Encode writes c to w.
	Encode(w io.Writer, c Classifier) error
	// Decode reads a classifier previously written by Encode.
	Decode(r io.Reader) (Classifier, error)
}

var (
	codecMu sync.RWMutex
	codecs  = map[string]Codec{}
)

// RegisterCodec makes a codec available to Save and Load. Registering two
// codecs for the same backend panics (a programming error, like a duplicate
// database/sql driver).
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.Backend()]; dup {
		panic("classify: duplicate codec for backend " + c.Backend())
	}
	codecs[c.Backend()] = c
}

// Codecs lists the registered backend names, sorted.
func Codecs() []string {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func codecFor(backend string) (Codec, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[backend]
	if !ok {
		return nil, fmt.Errorf("classify: no codec registered for backend %q (have %v)", backend, Codecs())
	}
	return c, nil
}

// envelopeVersion guards the on-disk model format.
const envelopeVersion = 1

// envelope is the self-describing model file layout: the backend name
// selects the codec, Model holds the codec's own payload.
type envelope struct {
	Version int             `json:"version"`
	Backend string          `json:"backend"`
	Model   json.RawMessage `json:"model"`
}

// Save writes c to w as a versioned envelope using the codec registered
// for c.Name().
func Save(w io.Writer, c Classifier) error {
	codec, err := codecFor(c.Name())
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := codec.Encode(&payload, c); err != nil {
		return fmt.Errorf("classify: encoding %s model: %w", c.Name(), err)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(envelope{Version: envelopeVersion, Backend: c.Name(), Model: json.RawMessage(payload.Bytes())})
}

// Load reads a classifier previously written by Save, dispatching to the
// codec named in the envelope.
func Load(r io.Reader) (Classifier, error) {
	var env envelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("classify: reading model envelope: %w", err)
	}
	if env.Version != envelopeVersion {
		return nil, fmt.Errorf("classify: unsupported model version %d (want %d)", env.Version, envelopeVersion)
	}
	codec, err := codecFor(env.Backend)
	if err != nil {
		return nil, err
	}
	c, err := codec.Decode(bytes.NewReader(env.Model))
	if err != nil {
		return nil, fmt.Errorf("classify: decoding %s model: %w", env.Backend, err)
	}
	return c, nil
}

// SaveFile writes c to path (see Save).
func SaveFile(path string, c Classifier) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Save(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a classifier from path (see Load).
func LoadFile(path string) (Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
