// Package ior implements interoperable object references (IORs) and
// FT-CORBA interoperable object *group* references (IOGRs).
//
// An IOR names one CORBA object: a repository id plus one or more tagged
// profiles, each giving a protocol endpoint and an object key. An IOGR is
// an IOR with one profile per replica plus FT tagged components:
// TAG_FT_GROUP (domain id, group id, group version) and TAG_FT_PRIMARY
// (marks the profile of the primary replica). Clients holding an IOGR can
// fail over between profiles transparently, and detect stale references by
// comparing group versions — this is the standardized mechanism that grew
// out of the systems the paper describes.
package ior

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"repro/internal/cdr"
)

// Tag values for profiles and components (subset of the OMG registry).
const (
	TagInternetIOP uint32 = 0  // TAG_INTERNET_IOP: an IIOP profile
	TagMultiComp   uint32 = 1  // TAG_MULTIPLE_COMPONENTS
	TagFTGroup     uint32 = 27 // TAG_FT_GROUP
	TagFTPrimary   uint32 = 28 // TAG_FT_PRIMARY
	TagFTHeartbeat uint32 = 29 // TAG_FT_HEARTBEAT_ENABLED
	TagOrbType     uint32 = 0x4f425400
)

// Errors returned when parsing references.
var (
	ErrNotIOR    = errors.New("ior: string does not begin with \"IOR:\"")
	ErrOddHex    = errors.New("ior: stringified IOR has odd hex length")
	ErrNoProfile = errors.New("ior: reference has no usable profile")
	ErrNoFTGroup = errors.New("ior: reference carries no TAG_FT_GROUP component")
)

// Component is a tagged component inside a profile.
type Component struct {
	Tag  uint32
	Data []byte // CDR encapsulation
}

// Profile is one endpoint at which the object (or one replica) is reachable.
type Profile struct {
	// Host and Port locate the endpoint. In this codebase Host is a node
	// name on the simulated network fabric (or a real IP for TCP tests).
	Host string
	Port uint16
	// ObjectKey is the opaque key the target object adapter uses to find
	// the servant.
	ObjectKey []byte
	// Components carries tagged components (FT group info, primary flag…).
	Components []Component
}

// HasComponent reports whether the profile carries a component with tag.
func (p *Profile) HasComponent(tag uint32) bool {
	for _, c := range p.Components {
		if c.Tag == tag {
			return true
		}
	}
	return false
}

// Component returns the data of the first component with tag, or nil.
func (p *Profile) Component(tag uint32) []byte {
	for _, c := range p.Components {
		if c.Tag == tag {
			return c.Data
		}
	}
	return nil
}

// Addr renders the endpoint as host:port.
func (p *Profile) Addr() string { return fmt.Sprintf("%s:%d", p.Host, p.Port) }

// FTGroup is the body of a TAG_FT_GROUP component: it identifies the object
// group a profile belongs to, with a version that the infrastructure bumps
// on every membership change so clients can detect stale IOGRs.
type FTGroup struct {
	FTDomainID string
	GroupID    uint64
	Version    uint32
}

// Ref is an object reference: an IOR when it has a single profile, an IOGR
// when it has several (one per replica) plus FT components.
type Ref struct {
	// TypeID is the repository id of the most-derived interface, e.g.
	// "IDL:repro/Inventory:1.0".
	TypeID   string
	Profiles []Profile
}

// IsNil reports whether the reference is the nil object reference.
func (r *Ref) IsNil() bool { return r == nil || len(r.Profiles) == 0 }

// IsGroup reports whether the reference is an IOGR (carries FT group info).
func (r *Ref) IsGroup() bool {
	if r == nil {
		return false
	}
	for i := range r.Profiles {
		if r.Profiles[i].HasComponent(TagFTGroup) {
			return true
		}
	}
	return false
}

// FTGroup extracts the group identification from the first profile carrying
// a TAG_FT_GROUP component.
func (r *Ref) FTGroup() (FTGroup, error) {
	for i := range r.Profiles {
		if data := r.Profiles[i].Component(TagFTGroup); data != nil {
			return decodeFTGroup(data)
		}
	}
	return FTGroup{}, ErrNoFTGroup
}

// PrimaryIndex returns the index of the profile flagged TAG_FT_PRIMARY,
// or 0 if none is flagged (per FT-CORBA a client may then try profiles in
// order).
func (r *Ref) PrimaryIndex() int {
	for i := range r.Profiles {
		if data := r.Profiles[i].Component(TagFTPrimary); data != nil {
			if d, err := cdr.DecodeEncapsulation(data); err == nil {
				if isPrimary, err := d.ReadBool(); err == nil && isPrimary {
					return i
				}
			}
		}
	}
	return 0
}

// Equal reports whether two references denote the same object(s) at the
// same endpoints (used by tests).
func (r *Ref) Equal(o *Ref) bool {
	if r.IsNil() || o.IsNil() {
		return r.IsNil() && o.IsNil()
	}
	if r.TypeID != o.TypeID || len(r.Profiles) != len(o.Profiles) {
		return false
	}
	for i := range r.Profiles {
		a, b := &r.Profiles[i], &o.Profiles[i]
		if a.Host != b.Host || a.Port != b.Port || string(a.ObjectKey) != string(b.ObjectKey) {
			return false
		}
		if len(a.Components) != len(b.Components) {
			return false
		}
		for j := range a.Components {
			if a.Components[j].Tag != b.Components[j].Tag ||
				string(a.Components[j].Data) != string(b.Components[j].Data) {
				return false
			}
		}
	}
	return true
}

// New builds a plain (singleton) IOR.
func New(typeID, host string, port uint16, objectKey []byte) *Ref {
	return &Ref{
		TypeID: typeID,
		Profiles: []Profile{{
			Host:      host,
			Port:      port,
			ObjectKey: append([]byte(nil), objectKey...),
		}},
	}
}

// GroupMember describes one replica endpoint when building an IOGR.
type GroupMember struct {
	Host      string
	Port      uint16
	ObjectKey []byte
	Primary   bool
}

// NewGroup builds an IOGR for an object group: one profile per member, each
// tagged with the group identity; the primary (if any) additionally tagged
// TAG_FT_PRIMARY.
func NewGroup(typeID string, g FTGroup, members []GroupMember) *Ref {
	ref := &Ref{TypeID: typeID}
	groupComp := Component{Tag: TagFTGroup, Data: encodeFTGroup(g)}
	for _, m := range members {
		p := Profile{
			Host:      m.Host,
			Port:      m.Port,
			ObjectKey: append([]byte(nil), m.ObjectKey...),
			Components: []Component{
				{Tag: TagFTGroup, Data: append([]byte(nil), groupComp.Data...)},
			},
		}
		if m.Primary {
			p.Components = append(p.Components, Component{
				Tag: TagFTPrimary,
				Data: cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
					e.WriteBool(true)
				}),
			})
		}
		ref.Profiles = append(ref.Profiles, p)
	}
	return ref
}

func encodeFTGroup(g FTGroup) []byte {
	return cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteString(g.FTDomainID)
		e.WriteULongLong(g.GroupID)
		e.WriteULong(g.Version)
	})
}

func decodeFTGroup(data []byte) (FTGroup, error) {
	d, err := cdr.DecodeEncapsulation(data)
	if err != nil {
		return FTGroup{}, fmt.Errorf("ior: bad FT group component: %w", err)
	}
	var g FTGroup
	if g.FTDomainID, err = d.ReadString(); err != nil {
		return FTGroup{}, fmt.Errorf("ior: bad FT group component: %w", err)
	}
	if g.GroupID, err = d.ReadULongLong(); err != nil {
		return FTGroup{}, fmt.Errorf("ior: bad FT group component: %w", err)
	}
	if g.Version, err = d.ReadULong(); err != nil {
		return FTGroup{}, fmt.Errorf("ior: bad FT group component: %w", err)
	}
	return g, nil
}

// Marshal encodes the reference as a CDR encapsulation (the standard wire
// form used inside messages and for stringification).
func Marshal(r *Ref) []byte {
	return cdr.EncodeEncapsulation(cdr.BigEndian, func(e *cdr.Encoder) {
		e.WriteString(r.TypeID)
		e.WriteULong(uint32(len(r.Profiles)))
		for i := range r.Profiles {
			p := &r.Profiles[i]
			e.WriteULong(TagInternetIOP)
			body := cdr.EncodeEncapsulation(cdr.BigEndian, func(pe *cdr.Encoder) {
				pe.WriteOctet(1) // IIOP major
				pe.WriteOctet(2) // IIOP minor
				pe.WriteString(p.Host)
				pe.WriteUShort(p.Port)
				pe.WriteOctetSeq(p.ObjectKey)
				pe.WriteULong(uint32(len(p.Components)))
				for _, c := range p.Components {
					pe.WriteULong(c.Tag)
					pe.WriteOctetSeq(c.Data)
				}
			})
			e.WriteOctetSeq(body)
		}
	})
}

// Unmarshal decodes a reference produced by Marshal.
func Unmarshal(b []byte) (*Ref, error) {
	d, err := cdr.DecodeEncapsulation(b)
	if err != nil {
		return nil, fmt.Errorf("ior: %w", err)
	}
	r := &Ref{}
	if r.TypeID, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("ior: type id: %w", err)
	}
	n, err := d.ReadCount(8) // a tag and a length word each
	if err != nil {
		return nil, fmt.Errorf("ior: profile count: %w", err)
	}
	for i := 0; i < n; i++ {
		tag, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("ior: profile tag: %w", err)
		}
		body, err := d.ReadOctetSeq()
		if err != nil {
			return nil, fmt.Errorf("ior: profile body: %w", err)
		}
		if tag != TagInternetIOP {
			continue // skip unknown profile kinds, per CORBA rules
		}
		p, err := decodeIIOPProfile(body)
		if err != nil {
			return nil, err
		}
		r.Profiles = append(r.Profiles, p)
	}
	if len(r.Profiles) == 0 {
		return nil, ErrNoProfile
	}
	return r, nil
}

func decodeIIOPProfile(body []byte) (Profile, error) {
	var p Profile
	pd, err := cdr.DecodeEncapsulation(body)
	if err != nil {
		return p, fmt.Errorf("ior: profile encapsulation: %w", err)
	}
	if _, err := pd.ReadOctet(); err != nil { // major
		return p, fmt.Errorf("ior: version: %w", err)
	}
	if _, err := pd.ReadOctet(); err != nil { // minor
		return p, fmt.Errorf("ior: version: %w", err)
	}
	if p.Host, err = pd.ReadString(); err != nil {
		return p, fmt.Errorf("ior: host: %w", err)
	}
	if p.Port, err = pd.ReadUShort(); err != nil {
		return p, fmt.Errorf("ior: port: %w", err)
	}
	if p.ObjectKey, err = pd.ReadOctetSeq(); err != nil {
		return p, fmt.Errorf("ior: object key: %w", err)
	}
	nc, err := pd.ReadCount(8) // a tag and a length word each
	if err != nil {
		return p, fmt.Errorf("ior: component count: %w", err)
	}
	for j := 0; j < nc; j++ {
		var c Component
		if c.Tag, err = pd.ReadULong(); err != nil {
			return p, fmt.Errorf("ior: component tag: %w", err)
		}
		if c.Data, err = pd.ReadOctetSeq(); err != nil {
			return p, fmt.Errorf("ior: component data: %w", err)
		}
		p.Components = append(p.Components, c)
	}
	return p, nil
}

// ToString renders the reference in the classic stringified form
// "IOR:<hex of marshaled encapsulation>".
func ToString(r *Ref) string {
	return "IOR:" + strings.ToLower(hex.EncodeToString(Marshal(r)))
}

// FromString parses a stringified reference produced by ToString (or any
// CORBA ORB emitting the same layout).
func FromString(s string) (*Ref, error) {
	if !strings.HasPrefix(s, "IOR:") {
		return nil, ErrNotIOR
	}
	hexPart := s[len("IOR:"):]
	if len(hexPart)%2 != 0 {
		return nil, ErrOddHex
	}
	raw, err := hex.DecodeString(hexPart)
	if err != nil {
		return nil, fmt.Errorf("ior: %w", err)
	}
	return Unmarshal(raw)
}
