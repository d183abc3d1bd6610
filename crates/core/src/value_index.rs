//! The value postings index behind joinable, unionable and PK-FK discovery.
//!
//! Syntactic joins, unionability and PK-FK links (paper §5.1, §6.2) score a
//! query column by exact containment against every column of the lake. A
//! [`ValueIndex`] interns every distinct value of the lake's non-numeric
//! columns to a dense `u32` id and keeps, per value, the *slots* (columns)
//! holding it. One pass over a query column's values then counts its
//! overlap `|query ∩ column|` with every column at once
//! ([`ValueIndex::overlaps`]): the exact overlap counting of JOSIE (Zhu et
//! al., SIGMOD 2019). Each slot also keeps the column's prepared name keys,
//! so the name signals never re-split or re-lowercase a lake column's name.
//!
//! Slots are the lake's columns in lake order: slot `i` is
//! `column_ids()[i]`, so callers walk the columns and read each count by
//! position. The index is derived state. [`ProfiledLake`] builds it wherever
//! a profiled lake is made and keeps it in step on every column ingest and
//! removal; segments do not store it.
//!
//! [`ProfiledLake`]: crate::profile::ProfiledLake

use std::borrow::Cow;
use std::collections::HashMap;

use cmdl_datalake::DeId;
use cmdl_text::strsim::NameKey;

use crate::profile::DeProfile;

/// A column's prepared name keys, for `name_similarity_of`.
#[derive(Debug, Clone)]
pub(crate) struct ColumnNames {
    /// Key of the short column name.
    pub(crate) name: NameKey,
    /// Key of the qualified `Table.Column` name.
    pub(crate) qualified_name: NameKey,
}

impl ColumnNames {
    /// Prepare both names of `profile`.
    fn of(profile: &DeProfile) -> Self {
        Self {
            name: NameKey::new(&profile.name),
            qualified_name: NameKey::new(&profile.qualified_name),
        }
    }
}

/// A [`ValueIndex`] as sets: each column's values, each value's columns.
#[cfg(test)]
pub(crate) type IndexSets<'a> = (
    std::collections::BTreeMap<DeId, std::collections::BTreeSet<&'a str>>,
    std::collections::BTreeMap<&'a str, std::collections::BTreeSet<DeId>>,
);

/// One column of the index.
#[derive(Debug, Clone)]
struct Slot {
    /// Value ids of the column's distinct values (empty for a numeric
    /// column, whose values are never compared as text).
    values: Vec<u32>,
    /// The column's prepared name keys.
    names: ColumnNames,
}

/// Value → column postings over a lake's columns (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// Column id of each slot, in lake order.
    columns: Vec<DeId>,
    /// Per-slot values and name keys, parallel to `columns`.
    slots: Vec<Slot>,
    /// Slot of each indexed column.
    slot_of: HashMap<DeId, u32>,
    /// Distinct non-numeric value → value id.
    dict: HashMap<String, u32>,
    /// Value id → the slots holding that value, ascending. The entry of an
    /// id in `free` is empty.
    postings: Vec<Vec<u32>>,
    /// Value ids whose value left the dictionary, for reuse.
    free: Vec<u32>,
}

impl ValueIndex {
    /// Index `columns`, in order.
    pub fn build<'a>(columns: impl IntoIterator<Item = &'a DeProfile>) -> Self {
        let mut index = Self::default();
        for profile in columns {
            index.push(profile);
        }
        index
    }

    /// Column ids by slot, in lake order.
    pub fn column_ids(&self) -> &[DeId] {
        &self.columns
    }

    /// Prepared name keys of the column in `slot`.
    pub(crate) fn names(&self, slot: usize) -> &ColumnNames {
        &self.slots[slot].names
    }

    /// Prepared name keys of `profile`: borrowed from its slot when the
    /// column is indexed here, prepared afresh for a foreign one.
    pub(crate) fn names_of(&self, profile: &DeProfile) -> Cow<'_, ColumnNames> {
        match self.slot_of.get(&profile.id) {
            Some(&slot) => Cow::Borrowed(&self.slots[slot as usize].names),
            None => Cow::Owned(ColumnNames::of(profile)),
        }
    }

    /// `|query ∩ column|` for every slot, by slot. A column indexed here
    /// probes by its value ids; a foreign profile (one resident on another
    /// shard) probes by looking its values up in the dictionary. Numeric
    /// columns, on either side, count 0. Exact, because every
    /// `distinct_values` list is duplicate-free.
    pub fn overlaps(&self, query: &DeProfile) -> Vec<u32> {
        let mut counts = vec![0u32; self.slots.len()];
        if query.tags.numeric {
            return counts;
        }
        let mut add = |value: u32| {
            for &slot in &self.postings[value as usize] {
                counts[slot as usize] += 1;
            }
        };
        match self.slot_of.get(&query.id) {
            Some(&slot) => self.slots[slot as usize]
                .values
                .iter()
                .for_each(|&value| add(value)),
            None => query
                .distinct_values
                .iter()
                .filter_map(|value| self.dict.get(value.as_str()))
                .for_each(|&value| add(value)),
        }
        counts
    }

    /// Append a column as the last slot.
    pub(crate) fn push(&mut self, profile: &DeProfile) {
        let slot = self.columns.len() as u32;
        let previous = self.slot_of.insert(profile.id, slot);
        debug_assert!(previous.is_none(), "column {:?} indexed twice", profile.id);
        let values = if profile.tags.numeric {
            Vec::new()
        } else {
            profile
                .distinct_values
                .iter()
                .map(|value| {
                    let id = match self.dict.get(value.as_str()) {
                        Some(&id) => id,
                        None => {
                            let id = self.free.pop().unwrap_or_else(|| {
                                self.postings.push(Vec::new());
                                (self.postings.len() - 1) as u32
                            });
                            self.dict.insert(value.clone(), id);
                            id
                        }
                    };
                    self.postings[id as usize].push(slot);
                    id
                })
                .collect()
        };
        self.columns.push(profile.id);
        self.slots.push(Slot {
            values,
            names: ColumnNames::of(profile),
        });
    }

    /// Drop the given columns' slots. Each removed column leaves its
    /// values' postings, a value with no postings left leaves the
    /// dictionary, and the surviving slots close up in lake order.
    /// Profiles of columns not indexed here are ignored.
    pub fn remove(&mut self, removed: &[DeProfile]) {
        let mut dropped = vec![false; self.slots.len()];
        for profile in removed {
            let Some(slot) = self.slot_of.remove(&profile.id) else {
                continue;
            };
            dropped[slot as usize] = true;
            // The slot's value ids follow `distinct_values` one to one.
            let values = std::mem::take(&mut self.slots[slot as usize].values);
            for (id, value) in values.into_iter().zip(&profile.distinct_values) {
                let postings = &mut self.postings[id as usize];
                postings.retain(|&s| s != slot);
                if postings.is_empty() {
                    self.dict.remove(value.as_str());
                    self.free.push(id);
                }
            }
        }
        if !dropped.contains(&true) {
            return;
        }
        // Old slot → new slot; the renumbering keeps postings ascending.
        let mut next = 0u32;
        let renumber: Vec<u32> = dropped
            .iter()
            .map(|&gone| {
                let slot = next;
                next += u32::from(!gone);
                slot
            })
            .collect();
        for postings in &mut self.postings {
            for slot in postings.iter_mut() {
                *slot = renumber[*slot as usize];
            }
        }
        (self.columns, self.slots) = std::mem::take(&mut self.columns)
            .into_iter()
            .zip(std::mem::take(&mut self.slots))
            .zip(dropped)
            .filter_map(|(kept, gone)| (!gone).then_some(kept))
            .unzip();
        for (slot, id) in self.columns.iter().enumerate() {
            self.slot_of.insert(*id, slot as u32);
        }
    }

    /// The index as sets, independent of id and slot numbering: each
    /// column's value set, and each dictionary value's column set.
    #[cfg(test)]
    pub(crate) fn as_sets(&self) -> IndexSets<'_> {
        let value_of: HashMap<u32, &str> = self
            .dict
            .iter()
            .map(|(value, &id)| (id, value.as_str()))
            .collect();
        let columns = self
            .columns
            .iter()
            .zip(&self.slots)
            .map(|(&id, slot)| (id, slot.values.iter().map(|v| value_of[v]).collect()))
            .collect();
        let values = self
            .dict
            .iter()
            .map(|(value, &id)| {
                let holders = self.postings[id as usize]
                    .iter()
                    .map(|&slot| self.columns[slot as usize])
                    .collect();
                (value.as_str(), holders)
            })
            .collect();
        (columns, values)
    }
}
